package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"scrub/internal/event"
	"scrub/internal/expr"
)

// A message is described once, by its code method: its fields in wire
// order, each handed by pointer to a coder primitive. The coder walks that
// one description in one of three modes — encoding appends each field to
// buf, decoding reads each from buf into the field, sizing adds up the
// bytes each would take — so the encoder, the decoder and
// TupleBatchWireSize cannot disagree about a message's layout.
type coder struct {
	mode mode
	buf  []byte // encoding: the payload so far; decoding: the payload
	pos  int    // decoding: the next unread byte of buf
	n    int    // sizing: the bytes counted
	err  error
	// sc, when decoding, lends the memory tuple-carrying messages are
	// decoded into (RecvScratch); nil allocates.
	sc *RecvScratch
	// While a tuple list decodes: the flat array its values are cut from,
	// and how many tuples, the current one included, are still to come.
	vals []event.Value
	left uint64
}

type mode uint8

const (
	encoding mode = iota
	decoding
	sizing
)

// Message type names, by tag. A tag without a name is reserved: no
// message carries it.
var names = [...]string{
	tagSubmitQuery:     "SubmitQuery",
	tagQueryAccepted:   "QueryAccepted",
	tagQueryError:      "QueryError",
	tagResultWindow:    "ResultWindow",
	tagQueryDone:       "QueryDone",
	tagCancelQuery:     "CancelQuery",
	tagRegisterHost:    "RegisterHost",
	tagHostQuery:       "HostQuery",
	tagStopQuery:       "StopQuery",
	tagDataHello:       "DataHello",
	tagTupleBatch:      "TupleBatch",
	tagListQueries:     "ListQueries",
	tagQueryList:       "QueryList",
	tagShardStart:      "ShardStart",
	tagShardAck:        "ShardAck",
	tagShardSubBatch:   "ShardSubBatch",
	tagShardBatchAck:   "ShardBatchAck",
	tagShardCollectReq: "ShardCollectReq",
	tagShardPartials:   "ShardPartials",
	tagShardStopReq:    "ShardStopReq",
	tagShardStatsReq:   "ShardStatsReq",
	tagShardStatsResp:  "ShardStatsResp",
	tagBatchManifest:   "BatchManifest",
	tagManifestAck:     "ManifestAck",
	tagShardHello:      "ShardHello",
	tagShardMap:        "ShardMap",
	tagShardStatusReq:  "ShardStatusReq",
	tagShardStatusList: "ShardStatusList",
	tagShardFence:      "ShardFence",
	tagShardFenceAck:   "ShardFenceAck",
	tagRepAppend:       "RepAppend",
	tagRepAck:          "RepAck",
}

// Name returns a human-readable message name for logs.
func Name(m Message) string {
	if m != nil {
		if name := names[m.msgTag()]; name != "" {
			return name
		}
	}
	return fmt.Sprintf("unknown(%T)", m)
}

// AppendEncode serializes a message payload (without framing) prefixed by
// its type tag, appending to dst, so steady-state senders (connections,
// benchmark sinks) can reuse one buffer across messages instead of
// allocating per encode. dst may be nil; the appended buffer is returned.
//
//scrub:hotpath
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	dst = append(dst, m.msgTag())
	c := coder{buf: dst}
	switch t := m.(type) {
	case SubmitQuery:
		t.code(&c)
	case QueryAccepted:
		t.code(&c)
	case QueryError:
		t.code(&c)
	case ResultWindow:
		t.code(&c)
	case QueryDone:
		t.code(&c)
	case CancelQuery:
		t.code(&c)
	case RegisterHost:
		t.code(&c)
	case HostQuery:
		t.code(&c)
	case StopQuery:
		t.code(&c)
	case DataHello:
		t.code(&c)
	case TupleBatch:
		t.code(&c)
	case ListQueries, ShardStatusReq:
		// no payload
	case QueryList:
		t.code(&c)
	case ShardStart:
		t.code(&c)
	case ShardAck:
		t.code(&c)
	case ShardSubBatch:
		t.code(&c)
	case *ShardSubBatch:
		t.code(&c) // by pointer, a sender's sub-batch is not boxed per frame
	case ShardBatchAck:
		t.code(&c)
	case ShardCollectReq:
		t.code(&c)
	case ShardPartials:
		t.code(&c)
	case ShardStopReq:
		t.code(&c)
	case ShardStatsReq:
		t.code(&c)
	case ShardStatsResp:
		t.code(&c)
	case BatchManifest:
		t.code(&c)
	case ManifestAck:
		t.code(&c)
	case ShardHello:
		t.code(&c)
	case ShardMap:
		t.code(&c)
	case ShardStatusList:
		t.code(&c)
	case ShardFence:
		t.code(&c)
	case ShardFenceAck:
		t.code(&c)
	case RepAppend:
		t.code(&c)
	case RepAck:
		t.code(&c)
	default:
		//scrub:allowalloc(cold error path for unknown message types)
		return nil, fmt.Errorf("transport: encode: unknown message %T", m)
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.buf, nil
}

// TupleBatchWireSize returns len(AppendEncode(nil, *b)) without writing a
// byte: the host shipper charges every batch it sends to the governor's
// byte budget, and encoding one a second time just to measure it cost a
// pass over the tuples and a buffer the size of a batch. It walks the
// batch's description in sizing mode.
func TupleBatchWireSize(b *TupleBatch) int {
	c := coder{mode: sizing, n: 1} // the tag
	b.code(&c)
	return c.n
}

// Decode parses a tagged payload produced by AppendEncode. The message
// owns its memory.
func Decode(b []byte) (Message, error) { return decode(b, nil) }

// decode is the one decoder: with a scratch, tuple-carrying messages
// borrow its memory (RecvScratch); without, everything is allocated. Each
// arm is spelled out: a generic one would call code through a dictionary,
// and the coder would escape to the heap on every frame.
func decode(b []byte, sc *RecvScratch) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("transport: decode: empty payload")
	}
	c := coder{mode: decoding, buf: b, pos: 1, sc: sc}
	var m Message
	switch b[0] {
	case tagSubmitQuery:
		var t SubmitQuery
		t.code(&c)
		m = t
	case tagQueryAccepted:
		var t QueryAccepted
		t.code(&c)
		m = t
	case tagQueryError:
		var t QueryError
		t.code(&c)
		m = t
	case tagResultWindow:
		var t ResultWindow
		t.code(&c)
		m = t
	case tagQueryDone:
		var t QueryDone
		t.code(&c)
		m = t
	case tagCancelQuery:
		var t CancelQuery
		t.code(&c)
		m = t
	case tagRegisterHost:
		var t RegisterHost
		t.code(&c)
		m = t
	case tagHostQuery:
		var t HostQuery
		t.code(&c)
		m = t
	case tagStopQuery:
		var t StopQuery
		t.code(&c)
		m = t
	case tagDataHello:
		var t DataHello
		t.code(&c)
		m = t
	case tagTupleBatch:
		var t TupleBatch
		t.code(&c)
		m = t
	case tagListQueries:
		m = ListQueries{}
	case tagQueryList:
		var t QueryList
		t.code(&c)
		m = t
	case tagShardStart:
		var t ShardStart
		t.code(&c)
		m = t
	case tagShardAck:
		var t ShardAck
		t.code(&c)
		m = t
	case tagShardSubBatch:
		if sc == nil {
			var t ShardSubBatch
			t.code(&c)
			m = t
			break
		}
		// Handed out by pointer into the scratch: boxing the struct would
		// be the one allocation left per frame.
		sc.sub = ShardSubBatch{}
		sc.sub.code(&c)
		m = &sc.sub
	case tagShardBatchAck:
		var t ShardBatchAck
		t.code(&c)
		m = t
	case tagShardCollectReq:
		var t ShardCollectReq
		t.code(&c)
		m = t
	case tagShardPartials:
		var t ShardPartials
		t.code(&c)
		m = t
	case tagShardStopReq:
		var t ShardStopReq
		t.code(&c)
		m = t
	case tagShardStatsReq:
		var t ShardStatsReq
		t.code(&c)
		m = t
	case tagShardStatsResp:
		var t ShardStatsResp
		t.code(&c)
		m = t
	case tagBatchManifest:
		var t BatchManifest
		t.code(&c)
		m = t
	case tagManifestAck:
		var t ManifestAck
		t.code(&c)
		m = t
	case tagShardHello:
		var t ShardHello
		t.code(&c)
		m = t
	case tagShardMap:
		var t ShardMap
		t.code(&c)
		m = t
	case tagShardStatusReq:
		m = ShardStatusReq{}
	case tagShardStatusList:
		var t ShardStatusList
		t.code(&c)
		m = t
	case tagShardFence:
		var t ShardFence
		t.code(&c)
		m = t
	case tagShardFenceAck:
		var t ShardFenceAck
		t.code(&c)
		m = t
	case tagRepAppend:
		var t RepAppend
		t.code(&c)
		m = t
	case tagRepAck:
		var t RepAck
		t.code(&c)
		m = t
	default:
		return nil, fmt.Errorf("transport: decode: unknown tag %d", b[0])
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.pos != len(b) {
		return nil, fmt.Errorf("transport: decode: %d trailing bytes", len(b)-c.pos)
	}
	return m, nil
}

//scrub:allowalloc(cold error path)
func (c *coder) fail(msg string) {
	if c.err == nil {
		c.err = fmt.Errorf("transport: decode: %s", msg)
	}
}

// next consumes k bytes of the payload, or fails with short and returns
// nil when fewer are left.
func (c *coder) next(k int, short string) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.buf)-c.pos < k {
		c.fail(short)
		return nil
	}
	b := c.buf[c.pos : c.pos+k]
	c.pos += k
	return b
}

func (c *coder) u8(x *uint8) {
	switch c.mode {
	case encoding:
		c.buf = append(c.buf, *x)
	case sizing:
		c.n++
	default:
		if b := c.next(1, "short u8"); b != nil {
			*x = b[0]
		}
	}
}

func (c *coder) u32(x *uint32) {
	switch c.mode {
	case encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *x)
	case sizing:
		c.n += 4
	default:
		if b := c.next(4, "short u32"); b != nil {
			*x = binary.LittleEndian.Uint32(b)
		}
	}
}

// u64 and i64, a tuple's two words, inline into a description: sizing
// is an addition, and writing or reading the word is one call.
func (c *coder) u64(x *uint64) {
	if c.mode == sizing {
		c.n += 8
		return
	}
	word(c, x)
}

func (c *coder) i64(x *int64) {
	if c.mode == sizing {
		c.n += 8
		return
	}
	word(c, x)
}

// word writes or reads an 8-byte word.
func word[T ~uint64 | ~int64](c *coder, x *T) {
	if c.mode == encoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*x))
	} else if b := c.next(8, "short u64"); b != nil {
		*x = T(binary.LittleEndian.Uint64(b))
	}
}

// f64 and bool ride on u64 and u8; only decoding writes the field.
func (c *coder) f64(x *float64) {
	u := math.Float64bits(*x)
	c.u64(&u)
	if c.mode == decoding {
		*x = math.Float64frombits(u)
	}
}

func (c *coder) bool(x *bool) {
	var u uint8
	if *x {
		u = 1
	}
	c.u8(&u)
	if c.mode == decoding {
		*x = u == 1
	}
}

// uvarint codes a length prefix.
func (c *coder) uvarint(x *uint64) {
	switch c.mode {
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, *x)
	case sizing:
		c.n += event.UvarintLen(*x)
	default:
		if c.err != nil {
			return
		}
		v, k := binary.Uvarint(c.buf[c.pos:])
		if k <= 0 {
			c.fail("bad uvarint")
			return
		}
		c.pos += k
		*x = v
	}
}

func (c *coder) str(s *string) {
	switch c.mode {
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s)))
		c.buf = append(c.buf, *s...)
	case sizing:
		c.n += event.UvarintLen(uint64(len(*s))) + len(*s)
	default:
		*s = c.readStr()
	}
}

// readStr decodes a string. It never aliases the payload: a receive
// loop's frames keep repeating their strings, so with a scratch it is
// found in the intern table, and without one it is copied.
//
//scrub:allowalloc(a decoded string is copied out of the frame, once per distinct string with a scratch)
func (c *coder) readStr() string {
	b := c.blob("short string")
	if c.sc != nil {
		return c.sc.intern(b)
	}
	return string(b)
}

func (c *coder) bytes(b *[]byte) {
	switch c.mode {
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*b)))
		c.buf = append(c.buf, *b...)
	case sizing:
		c.n += event.UvarintLen(uint64(len(*b))) + len(*b)
	default:
		*b = c.readBytes()
	}
}

// readBytes decodes a byte string into an array of its own.
//
//scrub:allowalloc(a decoded byte string is copied out of the frame)
func (c *coder) readBytes() []byte {
	b := c.blob("short bytes")
	if c.err != nil {
		return nil
	}
	return append([]byte{}, b...)
}

// blob reads a length-prefixed run of bytes where it lies in the payload.
func (c *coder) blob(short string) []byte {
	var ln uint64
	c.uvarint(&ln)
	if c.err == nil && uint64(len(c.buf)-c.pos) < ln {
		c.fail(short)
	}
	if c.err != nil {
		return nil
	}
	b := c.buf[c.pos : c.pos+int(ln)]
	c.pos += int(ln)
	return b
}

func (c *coder) value(v *event.Value) {
	switch c.mode {
	case encoding:
		c.buf = event.AppendValue(c.buf, *v)
	case sizing:
		c.n += event.EncodedSize(v)
	default:
		if c.err != nil {
			return
		}
		var str func([]byte) string // nil copies
		if c.sc != nil {
			str = c.sc.intern
		}
		x, k, err := event.DecodeValueAlias(c.buf[c.pos:], str)
		if err != nil {
			c.err = err
			return
		}
		c.pos += k
		*v = x
	}
}

// node codes an optional expression tree: a presence byte (any nonzero
// byte decodes as present), then the tree.
func (c *coder) node(n *expr.Node) {
	var present uint8
	if *n != nil {
		present = 1
	}
	c.u8(&present)
	if c.err != nil || present == 0 {
		return
	}
	switch c.mode {
	case encoding:
		b, err := expr.AppendNode(c.buf, *n)
		if err != nil {
			c.err = err
			return
		}
		c.buf = b
	case sizing: // no hot path sizes a predicate
		b, err := expr.AppendNode(nil, *n)
		c.n += len(b)
		c.err = err
	default:
		*n = c.readNode()
	}
}

//scrub:allowalloc(a decoded expression tree is built node by node)
func (c *coder) readNode() expr.Node {
	n, used, err := expr.DecodeNode(c.buf[c.pos:])
	if err != nil {
		c.err = err
		return nil
	}
	c.pos += used
	return n
}

// Whether an empty list decodes as nil or as an empty, non-nil list.
type empty bool

const (
	emptyNil  empty = false
	emptyKept empty = true
)

// length codes a list's length prefix; decoding, it also makes the list,
// whose elements the caller then codes one by one. A decoded count above
// the payload's length is implausible — every element takes a byte — and
// fails before anything is allocated for it.
func length[T any](c *coder, s *[]T, e empty, implausible string) {
	n := uint64(len(*s))
	c.uvarint(&n)
	if c.mode != decoding {
		return
	}
	if c.err == nil && n > uint64(len(c.buf)) {
		c.fail(implausible)
	}
	if c.err != nil || n == 0 && e == emptyNil {
		*s = nil
		return
	}
	//scrub:allowalloc(decoding makes the list it returns)
	*s = make([]T, n)
}

func (c *coder) strs(s *[]string) {
	length(c, s, emptyKept, "implausible string count")
	for i := range *s {
		c.str(&(*s)[i])
	}
}

func (c *coder) u64s(s *[]uint64) {
	length(c, s, emptyNil, "implausible u64 count")
	for i := range *s {
		c.u64(&(*s)[i])
	}
}

// minTupleBytes is the least a tuple takes on the wire: request id, event
// time and a zero value count.
const minTupleBytes = 17

// tuples codes a tuple list, each tuple by its description. Decoding, the
// cells go into c.sc's arrays when a scratch is set — valid until the
// scratch's next decode, the //scrub:pooled contract of Tuple.Values and
// the Tuples fields — and into fresh arrays otherwise. Either way all the
// tuples' Values share one flat backing array, each capped at its own
// length (cells). String payloads are ordinary immutable strings that
// never alias the payload, so a value copied out of a borrowed cell is
// good for ever.
//
//scrub:hotpath
func (c *coder) tuples(s *[]Tuple) {
	n := uint64(len(*s))
	c.uvarint(&n)
	if c.mode != decoding {
		for i := range *s {
			(*s)[i].code(c)
		}
		return
	}
	if c.err == nil && n > uint64(len(c.buf)-c.pos)/minTupleBytes {
		c.fail("implausible tuple count")
	}
	*s = nil
	if c.err != nil || n == 0 {
		return
	}
	var ts []Tuple
	c.vals = nil
	if c.sc != nil {
		ts, c.vals = c.sc.tuples[:0], c.sc.vals[:0]
	}
	if uint64(cap(ts)) < n {
		//scrub:allowalloc(one array per message without a scratch; growth only with one)
		ts = make([]Tuple, 0, n)
	}
	ts = ts[:n]
	for i := range ts {
		c.left = n - uint64(i)
		ts[i].code(c)
	}
	if c.sc != nil {
		c.sc.tuples, c.sc.vals = ts, c.vals
	}
	*s = ts
}

// cells codes a tuple's values. Decoding, they are cut from c.vals, the
// flat array the tuple list's values share.
func (c *coder) cells(vs *[]event.Value) {
	n := uint64(len(*vs))
	switch c.mode { // as uvarint and value do, without a call per cell
	case encoding:
		buf := binary.AppendUvarint(c.buf, n)
		for _, v := range *vs {
			buf = event.AppendValue(buf, v)
		}
		c.buf = buf
		return
	case sizing:
		size, vals := c.n+event.UvarintLen(n), *vs
		for i := range vals {
			size += event.EncodedSize(&vals[i])
		}
		c.n = size
		return
	}
	c.uvarint(&n)
	// Every value takes at least its tag byte.
	if c.err == nil && n > uint64(len(c.buf)-c.pos) {
		c.fail("implausible value count")
	}
	*vs = nil
	if c.err != nil || n == 0 {
		return
	}
	if uint64(cap(c.vals)-len(c.vals)) < n {
		// Sized for the rest of the list at this tuple's width, which the
		// bytes left bound too. Tuples already decoded keep the array they
		// were cut from.
		need := min(c.left*n, uint64(len(c.buf)-c.pos))
		//scrub:allowalloc(one array per message without a scratch; growth only with one)
		c.vals = make([]event.Value, 0, max(need, 2*uint64(cap(c.vals))))
	}
	start := len(c.vals)
	c.vals = c.vals[:start+int(n)]
	*vs = c.vals[start:len(c.vals):len(c.vals)]
	for i := range *vs {
		c.value(&(*vs)[i])
	}
}
