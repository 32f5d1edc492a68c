package event

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnknownType marks a decoded event whose type is not in the catalog.
// Consumers that read events written under an older catalog (the replay
// store across a restart) match it with errors.Is to skip the record
// rather than treat it as corruption.
var ErrUnknownType = errors.New("unknown event type")

// Binary encoding. The wire format between host agents and ScrubCentral is
// deliberately simple: a one-byte kind tag per value, varint lengths, and
// fixed 8-byte payloads for numerics. It is self-describing at the value
// level so projected tuples can be decoded without the originating schema.

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInvalid:
		// tag only
	case KindBool:
		if v.num != 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt, KindTime:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v.num)
		dst = append(dst, buf[:]...)
	case KindFloat:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v.num)
		dst = append(dst, buf[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.str)))
		dst = append(dst, v.str...)
	case KindList:
		dst = append(dst, byte(v.Elem()))
		dst = binary.AppendUvarint(dst, uint64(len(v.elems())))
		for _, e := range v.elems() {
			dst = AppendValue(dst, e)
		}
	}
	return dst
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed. The value owns its memory: string payloads are
// copied out of b.
func DecodeValue(b []byte) (Value, int, error) { return DecodeValueAlias(b, nil) }

// DecodeValueAlias is DecodeValue with the caller choosing how a string
// payload's bytes become a string: str is handed the payload's slice of b
// and may return a string that shares its memory, for a caller that knows
// b is never modified while the value lives. A nil str copies.
//
//scrub:allowalloc(a string or list payload is built on the heap by design, scalars allocate nothing; errors are cold)
func DecodeValueAlias(b []byte, str func([]byte) string) (Value, int, error) {
	if len(b) == 0 {
		return Invalid, 0, fmt.Errorf("event: decode: empty buffer")
	}
	kind := Kind(b[0])
	n := 1
	switch kind {
	case KindInvalid:
		return Invalid, n, nil
	case KindBool:
		if len(b) < n+1 {
			return Invalid, 0, fmt.Errorf("event: decode: short bool")
		}
		return Bool(b[n] != 0), n + 1, nil
	case KindInt, KindTime, KindFloat:
		if len(b) < n+8 {
			return Invalid, 0, fmt.Errorf("event: decode: short %v", kind)
		}
		num := binary.LittleEndian.Uint64(b[n : n+8])
		return Value{kind: kind, num: num}, n + 8, nil
	case KindString:
		ln, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return Invalid, 0, fmt.Errorf("event: decode: bad string length")
		}
		n += sz
		if uint64(len(b)-n) < ln {
			return Invalid, 0, fmt.Errorf("event: decode: short string")
		}
		if str != nil {
			return Str(str(b[n : n+int(ln)])), n + int(ln), nil
		}
		return Str(string(b[n : n+int(ln)])), n + int(ln), nil
	case KindList:
		if len(b) < n+1 {
			return Invalid, 0, fmt.Errorf("event: decode: short list header")
		}
		elem := Kind(b[n])
		n++
		cnt, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return Invalid, 0, fmt.Errorf("event: decode: bad list count")
		}
		n += sz
		if cnt > uint64(len(b)) {
			return Invalid, 0, fmt.Errorf("event: decode: implausible list count %d", cnt)
		}
		vs := make([]Value, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			v, used, err := DecodeValueAlias(b[n:], str)
			if err != nil {
				return Invalid, 0, err
			}
			if v.kind != elem && v.kind != KindInvalid {
				return Invalid, 0, fmt.Errorf("event: decode: list element kind %v != %v", v.kind, elem)
			}
			vs = append(vs, v)
			n += used
		}
		return listOf(elem, vs), n, nil
	default:
		return Invalid, 0, fmt.Errorf("event: decode: unknown kind tag %d", b[0])
	}
}

// AppendEvent appends the full binary encoding of an event: type name,
// system fields, then each user field value in schema order.
func AppendEvent(dst []byte, e *Event) []byte {
	name := e.Schema.Name()
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], e.RequestID)
	dst = append(dst, buf[:]...)
	binary.LittleEndian.PutUint64(buf[:], uint64(e.TimeNanos))
	dst = append(dst, buf[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(e.Values)))
	for _, v := range e.Values {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeEvent decodes an event, resolving its schema through the catalog.
// It returns the event and bytes consumed.
func DecodeEvent(b []byte, cat *Catalog) (*Event, int, error) {
	ln, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("event: decode event: bad name length")
	}
	n := sz
	if uint64(len(b)-n) < ln {
		return nil, 0, fmt.Errorf("event: decode event: short name")
	}
	name := string(b[n : n+int(ln)])
	n += int(ln)
	schema, ok := cat.Lookup(name)
	if !ok {
		return nil, 0, fmt.Errorf("event: decode event: unknown type %q: %w", name, ErrUnknownType)
	}
	if len(b) < n+16 {
		return nil, 0, fmt.Errorf("event: decode event: short header")
	}
	reqID := binary.LittleEndian.Uint64(b[n : n+8])
	ts := int64(binary.LittleEndian.Uint64(b[n+8 : n+16]))
	n += 16
	cnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 {
		return nil, 0, fmt.Errorf("event: decode event: bad field count")
	}
	n += sz
	if cnt != uint64(schema.NumFields()) {
		return nil, 0, fmt.Errorf("event: decode event: %q field count %d != schema %d", name, cnt, schema.NumFields())
	}
	vs := make([]Value, cnt)
	for i := range vs {
		v, used, err := DecodeValue(b[n:])
		if err != nil {
			return nil, 0, err
		}
		vs[i] = v
		n += used
	}
	return &Event{Schema: schema, RequestID: reqID, TimeNanos: ts, Values: vs}, n, nil
}

// EncodedSize returns len(AppendValue(nil, *v)) without writing a byte. The
// host shipper sizes every batch it sends with it, for the governor's byte
// accounting (transport.TupleBatchWireSize); it takes the cell by pointer
// because a 40-byte Value passed by value is copied first.
func EncodedSize(v *Value) int {
	switch v.kind {
	case KindInvalid:
		return 1
	case KindBool:
		return 2
	case KindInt, KindTime, KindFloat:
		return 9
	case KindString:
		return 1 + UvarintLen(uint64(len(v.str))) + len(v.str)
	case KindList:
		vals := v.list.vals
		n := 2 + UvarintLen(uint64(len(vals)))
		for i := range vals {
			n += EncodedSize(&vals[i])
		}
		return n
	default:
		return 1
	}
}

// UvarintLen is len(binary.AppendUvarint(nil, x)): what a length or count
// prefix takes in this encoding and in the transport codec built on it.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
