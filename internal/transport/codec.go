package transport

import (
	"encoding/binary"
	"fmt"

	"scrub/internal/event"
	"scrub/internal/wire"
)

// A message is described once, by its code method: its fields in wire
// order, each handed by pointer to a coder primitive (internal/wire). The
// coder walks that one description to encode, to decode and to size
// (TupleBatchWireSize), so the three cannot disagree about a message's
// layout. On top of wire.Coder it keeps what a receive loop lends the
// decoder: Str interns strings in a scratch, and a tuple list's cells are
// cut from the scratch's arrays, their strings interned too.
type coder struct {
	wire.Coder
	// sc, when decoding, lends the memory tuple-carrying messages are
	// decoded into (RecvScratch); nil allocates.
	sc *RecvScratch
	// While a tuple list decodes: the flat array its values are cut from,
	// and how many tuples, the current one included, are still to come.
	vals []event.Value
	left uint64
}

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
	c := coder{Coder: wire.Coder{Buf: dst}}
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
	case *ShardBatchAck:
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
	case *BatchManifest:
		t.code(&c) // by pointer, as *ShardSubBatch
	case ManifestAck:
		t.code(&c)
	case *ManifestAck:
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
	if c.Err != nil {
		return nil, c.Err
	}
	return c.Buf, nil
}

// TupleBatchWireSize returns len(AppendEncode(nil, *b)) without writing a
// byte: the host shipper charges every batch it sends to the governor's
// byte budget, and encoding one a second time just to measure it cost a
// pass over the tuples and a buffer the size of a batch. It walks the
// batch's description in sizing mode.
func TupleBatchWireSize(b *TupleBatch) int {
	c := coder{Coder: wire.Coder{Mode: wire.Sizing, N: 1}} // the tag
	b.code(&c)
	return c.N
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
	c := coder{Coder: wire.Coder{Mode: wire.Decoding, Buf: b, Pos: 1}, sc: sc}
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
		// Handed out by pointer into the scratch, as the acks of a routed
		// batch's round trips are: boxing the struct would be the one
		// allocation left per frame.
		sc.sub = ShardSubBatch{}
		sc.sub.code(&c)
		m = &sc.sub
	case tagShardBatchAck:
		if sc == nil {
			var t ShardBatchAck
			t.code(&c)
			m = t
			break
		}
		sc.ack = ShardBatchAck{}
		sc.ack.code(&c)
		m = &sc.ack
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
		if sc == nil {
			var t BatchManifest
			t.code(&c)
			m = t
			break
		}
		sc.man = BatchManifest{}
		sc.man.code(&c)
		m = &sc.man
	case tagManifestAck:
		if sc == nil {
			var t ManifestAck
			t.code(&c)
			m = t
			break
		}
		sc.mack = ManifestAck{}
		sc.mack.code(&c)
		m = &sc.mack
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
	if c.Err != nil {
		return nil, fmt.Errorf("transport: decode: %w", c.Err)
	}
	if c.Pos != len(b) {
		return nil, fmt.Errorf("transport: decode: %d trailing bytes", len(b)-c.Pos)
	}
	return m, nil
}

// Str is wire.Coder's, but decoding with a scratch finds the string in
// the scratch's intern table: a receive loop's frames keep repeating their
// strings. Either way it never aliases the payload.
func (c *coder) Str(s *string) {
	if c.Mode != wire.Decoding || c.sc == nil {
		c.Coder.Str(s)
		return
	}
	var b []byte
	c.BytesAlias(&b)
	*s = c.sc.intern(b)
}

func (c *coder) Strs(s *[]string) {
	wire.Length(&c.Coder, s, wire.EmptyKept, "implausible string count")
	for i := range *s {
		c.Str(&(*s)[i])
	}
}

func (c *coder) U64s(s *[]uint64) {
	wire.Length(&c.Coder, s, wire.EmptyNil, "implausible u64 count")
	for i := range *s {
		c.U64(&(*s)[i])
	}
}

// minTupleBytes is the least a tuple takes on the wire: request id, event
// time and a zero value count.
const minTupleBytes = 17

// tuples codes a tuple list, each tuple by its description. Decoding, the
// cells go into the arrays c.sc lends when a scratch is set — valid until
// the scratch's next receive, the //scrub:pooled contract of Tuple.Values and
// the Tuples fields — and into fresh arrays otherwise. Either way all the
// tuples' Values share one flat backing array, each capped at its own
// length (cells). String payloads are ordinary immutable strings that
// never alias the payload, so a value copied out of a borrowed cell is
// good for ever.
//
//scrub:hotpath
func (c *coder) tuples(s *[]Tuple) {
	n := uint64(len(*s))
	c.Uvarint(&n)
	if c.Mode != wire.Decoding {
		for i := range *s {
			(*s)[i].code(c)
		}
		return
	}
	if c.Err == nil && n > uint64(len(c.Buf)-c.Pos)/minTupleBytes {
		c.Fail("implausible tuple count")
	}
	*s = nil
	if c.Err != nil || n == 0 {
		return
	}
	var ts []Tuple
	var cl *cells
	c.vals = nil
	if c.sc != nil {
		cl = c.sc.lend()
		ts, c.vals = cl.tuples[:0], cl.vals[:0]
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
	if cl != nil {
		cl.tuples, cl.vals = ts, c.vals
	}
	*s = ts
}

// cells codes a tuple's values. Decoding, they are cut from c.vals, the
// flat array the tuple list's values share.
func (c *coder) cells(vs *[]event.Value) {
	n := uint64(len(*vs))
	switch c.Mode { // as Uvarint and Value do, without a call per cell
	case wire.Encoding:
		buf := binary.AppendUvarint(c.Buf, n)
		for _, v := range *vs {
			buf = event.AppendValue(buf, v)
		}
		c.Buf = buf
		return
	case wire.Sizing:
		size, vals := c.N+event.UvarintLen(n), *vs
		for i := range vals {
			size += event.EncodedSize(&vals[i])
		}
		c.N = size
		return
	}
	c.Uvarint(&n)
	// Every value takes at least its tag byte.
	if c.Err == nil && n > uint64(len(c.Buf)-c.Pos) {
		c.Fail("implausible value count")
	}
	*vs = nil
	if c.Err != nil || n == 0 {
		return
	}
	if uint64(cap(c.vals)-len(c.vals)) < n {
		// Sized for the rest of the list at this tuple's width, which the
		// bytes left bound too. Tuples already decoded keep the array they
		// were cut from.
		need := min(c.left*n, uint64(len(c.Buf)-c.Pos))
		//scrub:allowalloc(one array per message without a scratch; growth only with one)
		c.vals = make([]event.Value, 0, max(need, 2*uint64(cap(c.vals))))
	}
	start := len(c.vals)
	c.vals = c.vals[:start+int(n)]
	*vs = c.vals[start:len(c.vals):len(c.vals)]
	var str func([]byte) string // nil copies
	if c.sc != nil {
		str = c.sc.intern // a string payload is interned as Str's are
	}
	for i := range *vs {
		c.ValueWith(&(*vs)[i], str)
	}
}
