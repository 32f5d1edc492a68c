// Package wire is the coder Scrub's binary formats are described for: the
// transport's messages, the expression trees inside a HostQuery, and the
// window partials inside a ShardPartials with their aggregate states,
// sketches and moments. A format is described once, by a code method or
// function that hands each of its fields, in wire order, by pointer to a
// Coder primitive. The Coder walks that one description in one of three
// modes — Encoding appends each field to Buf, Decoding reads each from Buf
// into the field, Sizing adds up the bytes each would take — so a format's
// encoder, decoder and size cannot disagree about its layout.
//
// Decoded bytes are untrusted. A decoding primitive that finds its bytes
// short or malformed records the first failure in Err and reads nothing
// once Err is set, so a description runs straight through and its caller
// checks Err once at the end. What a format knows beyond its layout — a count that
// must match a plan, a value that must be in range — is checked by its
// description in decoding mode, through Fail.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"scrub/internal/event"
)

// Mode is what a Coder does with the fields a description hands it.
type Mode uint8

// The three modes. The zero Coder encodes.
const (
	Encoding Mode = iota
	Decoding
	Sizing
)

// Coder walks a description in one mode.
type Coder struct {
	Mode Mode
	Buf  []byte // encoding: the bytes so far; decoding: the input
	Pos  int    // decoding: the next unread byte of Buf
	N    int    // sizing: the bytes counted
	Err  error  // the first failure
}

// Fail records msg as the Coder's failure unless one is recorded already.
//
//scrub:allowalloc(cold error path)
func (c *Coder) Fail(msg string) {
	if c.Err == nil {
		c.Err = errors.New(msg)
	}
}

// Failf is Fail with a formatted message.
//
//scrub:allowalloc(cold error path)
func (c *Coder) Failf(format string, args ...any) {
	if c.Err == nil {
		c.Err = fmt.Errorf(format, args...)
	}
}

// Rest returns the unread input while decoding.
func (c *Coder) Rest() []byte { return c.Buf[c.Pos:] }

// next consumes k bytes of the input, or fails with short and returns nil
// when fewer are left.
func (c *Coder) next(k int, short string) []byte {
	if c.Err != nil {
		return nil
	}
	if len(c.Buf)-c.Pos < k {
		c.Fail(short)
		return nil
	}
	b := c.Buf[c.Pos : c.Pos+k]
	c.Pos += k
	return b
}

// U8 codes a byte.
func (c *Coder) U8(x *uint8) {
	switch c.Mode {
	case Encoding:
		c.Buf = append(c.Buf, *x)
	case Sizing:
		c.N++
	default:
		if b := c.next(1, "short u8"); b != nil {
			*x = b[0]
		}
	}
}

// U32 codes a little-endian 4-byte word.
func (c *Coder) U32(x *uint32) {
	switch c.Mode {
	case Encoding:
		c.Buf = binary.LittleEndian.AppendUint32(c.Buf, *x)
	case Sizing:
		c.N += 4
	default:
		if b := c.next(4, "short u32"); b != nil {
			*x = binary.LittleEndian.Uint32(b)
		}
	}
}

// U64 and I64, a tuple's two words, inline into a description: sizing
// is an addition, and writing or reading the word is one call.

// U64 codes a little-endian 8-byte word.
func (c *Coder) U64(x *uint64) {
	if c.Mode == Sizing {
		c.N += 8
		return
	}
	c.word(x)
}

// I64 codes a signed 8-byte word, as U64 does. The int64 is read and
// written as the uint64 of the same bits: a conversion of the value would
// cost the call its inlining.
func (c *Coder) I64(x *int64) {
	if c.Mode == Sizing {
		c.N += 8
		return
	}
	c.word((*uint64)(unsafe.Pointer(x)))
}

// word writes or reads an 8-byte word.
func (c *Coder) word(x *uint64) {
	if c.Mode == Encoding {
		c.Buf = binary.LittleEndian.AppendUint64(c.Buf, *x)
	} else if b := c.next(8, "short u64"); b != nil {
		*x = binary.LittleEndian.Uint64(b)
	}
}

// F64 codes a float's IEEE-754 bits as U64 does; only decoding writes the
// field.
func (c *Coder) F64(x *float64) {
	u := math.Float64bits(*x)
	c.U64(&u)
	if c.Mode == Decoding {
		*x = math.Float64frombits(u)
	}
}

// Bool codes a bool as one byte, 1 or 0; decoding, only 1 is true.
func (c *Coder) Bool(x *bool) {
	var u uint8
	if *x {
		u = 1
	}
	c.U8(&u)
	if c.Mode == Decoding {
		*x = u == 1
	}
}

// NonZero codes a bool as Bool does, but decodes any nonzero byte as true.
func (c *Coder) NonZero(x *bool) {
	var u uint8
	if *x {
		u = 1
	}
	c.U8(&u)
	if c.Mode == Decoding {
		*x = u != 0
	}
}

// Uvarint codes an unsigned varint: a length, a count or a counter.
func (c *Coder) Uvarint(x *uint64) {
	switch c.Mode {
	case Encoding:
		c.Buf = binary.AppendUvarint(c.Buf, *x)
	case Sizing:
		c.N += event.UvarintLen(*x)
	default:
		if c.Err != nil {
			return
		}
		v, k := binary.Uvarint(c.Buf[c.Pos:])
		if k <= 0 {
			c.Fail("bad uvarint")
			return
		}
		c.Pos += k
		*x = v
	}
}

// Int codes a non-negative int — a count or an index — as a uvarint.
// Decoding, a value that does not fit an int is malformed.
func (c *Coder) Int(x *int) {
	u := uint64(*x)
	c.Uvarint(&u)
	if c.Mode != Decoding || c.Err != nil {
		return
	}
	if u > math.MaxInt {
		c.Failf("count %d does not fit an int", u)
		return
	}
	*x = int(u)
}

// Str codes a string as its length and its bytes. Decoding copies it out
// of the input.
func (c *Coder) Str(s *string) {
	switch c.Mode {
	case Encoding:
		c.Buf = binary.AppendUvarint(c.Buf, uint64(len(*s)))
		c.Buf = append(c.Buf, *s...)
	case Sizing:
		c.N += event.UvarintLen(uint64(len(*s))) + len(*s)
	default:
		*s = c.readStr()
	}
}

//scrub:allowalloc(a decoded string is copied out of the input)
func (c *Coder) readStr() string { return string(c.blob("short string")) }

// Bytes codes a byte string as its length and its bytes. Decoding copies
// it into an array of its own.
func (c *Coder) Bytes(b *[]byte) {
	if c.Mode != Decoding {
		c.BytesAlias(b)
		return
	}
	*b = c.readBytes()
}

//scrub:allowalloc(a decoded byte string is copied out of the input)
func (c *Coder) readBytes() []byte {
	b := c.blob("short bytes")
	if c.Err != nil {
		return nil
	}
	return append([]byte{}, b...)
}

// BytesAlias codes a byte string as Bytes does, but decoding points *b at
// the bytes where they lie in the input: the caller copies what it keeps.
func (c *Coder) BytesAlias(b *[]byte) {
	switch c.Mode {
	case Encoding:
		c.Buf = binary.AppendUvarint(c.Buf, uint64(len(*b)))
		c.Buf = append(c.Buf, *b...)
	case Sizing:
		c.N += event.UvarintLen(uint64(len(*b))) + len(*b)
	default:
		*b = c.blob("short bytes")
	}
}

// blob reads a length-prefixed run of bytes where it lies in the input.
func (c *Coder) blob(short string) []byte {
	var ln uint64
	c.Uvarint(&ln)
	if c.Err == nil && uint64(len(c.Buf)-c.Pos) < ln {
		c.Fail(short)
	}
	if c.Err != nil {
		return nil
	}
	b := c.Buf[c.Pos : c.Pos+int(ln)]
	c.Pos += int(ln)
	return b
}

// Raw codes exactly k bytes with no length prefix: a run whose length the
// format knows from what came before it. Encoding, len(*b) must be k.
// Decoding points *b at the bytes where they lie in the input.
func (c *Coder) Raw(b *[]byte, k int) {
	switch c.Mode {
	case Encoding:
		c.Buf = append(c.Buf, *b...)
	case Sizing:
		c.N += k
	default:
		*b = c.next(k, "short run")
	}
}

// Value codes an event value in its self-describing form
// (event.AppendValue). Decoding, the value owns its memory.
func (c *Coder) Value(v *event.Value) {
	switch c.Mode {
	case Encoding:
		c.Buf = event.AppendValue(c.Buf, *v)
	case Sizing:
		c.N += event.EncodedSize(v)
	default:
		c.ValueWith(v, nil)
	}
}

// ValueWith decodes an event value, handing each string payload's bytes to
// str as event.DecodeValueAlias does.
func (c *Coder) ValueWith(v *event.Value, str func([]byte) string) {
	if c.Err != nil {
		return
	}
	x, k, err := event.DecodeValueAlias(c.Buf[c.Pos:], str)
	if err != nil {
		c.Err = err
		return
	}
	c.Pos += k
	*v = x
}

// Empty says whether an empty list decodes as nil or as an empty, non-nil
// list.
type Empty bool

// The two ways an empty list decodes.
const (
	EmptyNil  Empty = false
	EmptyKept Empty = true
)

// Count codes a list's length prefix. A decoded count above the input's
// length is implausible — every element takes a byte — and fails before
// anything is made for it.
func (c *Coder) Count(n *int, implausible string) {
	u := uint64(*n)
	c.Uvarint(&u)
	if c.Mode != Decoding || c.Err != nil {
		return
	}
	if u > uint64(len(c.Buf)) {
		c.Fail(implausible)
		return
	}
	*n = int(u)
}

// Length codes a slice's length as Count does; decoding, it also makes
// the slice, whose elements the caller then codes one by one.
func Length[T any](c *Coder, s *[]T, e Empty, implausible string) {
	n := len(*s)
	c.Count(&n, implausible)
	if c.Mode != Decoding {
		return
	}
	if c.Err != nil || n == 0 && e == EmptyNil {
		*s = nil
		return
	}
	//scrub:allowalloc(decoding makes the list it returns)
	*s = make([]T, n)
}
