package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"scrub/internal/event"
	"scrub/internal/expr"
)

// writer accumulates a payload.
type writer struct {
	buf []byte
	err error
}

func (w *writer) u8(x uint8)   { w.buf = append(w.buf, x) }
func (w *writer) u32(x uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, x) }
func (w *writer) u64(x uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, x) }
func (w *writer) i64(x int64)  { w.u64(uint64(x)) }
func (w *writer) f64(x float64) {
	w.u64(math.Float64bits(x))
}
func (w *writer) uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) strs(ss []string) {
	w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}
func (w *writer) value(v event.Value) { w.buf = event.AppendValue(w.buf, v) }
func (w *writer) tuples(ts []Tuple) {
	w.uvarint(uint64(len(ts)))
	for _, tp := range ts {
		w.u64(tp.RequestID)
		w.i64(tp.TsNanos)
		w.uvarint(uint64(len(tp.Values)))
		for _, v := range tp.Values {
			w.value(v)
		}
	}
}
func (w *writer) node(n expr.Node) {
	if w.err != nil {
		return
	}
	if n == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	b, err := expr.AppendNode(w.buf, n)
	if err != nil {
		w.err = err
		return
	}
	w.buf = b
}
func (w *writer) bool(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) streamStat(s StreamStat) {
	w.str(s.HostID)
	w.u8(s.TypeIdx)
	w.u64(s.Matched)
	w.u64(s.Sampled)
	w.u64(s.Drops)
	w.u64(s.LateDrops)
	w.bool(s.Evicted)
	w.f64(s.EffRate)
	w.bool(s.BudgetShed)
	w.u64(s.CPUNs)
	w.u64(s.Bytes)
}

func (w *writer) queryStats(s QueryStats) {
	w.u64(s.Windows)
	w.u64(s.Rows)
	w.u64(s.TuplesIn)
	w.u64(s.HostDrops)
	w.u64(s.LateDrops)
	w.u64(s.DegradedWindows)
	w.u64(s.ShedWindows)
}

// reader consumes a payload, accumulating the first error.
type reader struct {
	buf []byte
	pos int
	err error
	// sc, when set, lends the memory tuple-carrying messages are decoded
	// into (RecvScratch); nil allocates.
	sc *RecvScratch
}

//scrub:allowalloc(cold error path)
func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: decode: %s", msg)
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("short u8")
		return 0
	}
	x := r.buf[r.pos]
	r.pos++
	return x
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.pos+4 > len(r.buf) {
		r.fail("short u32")
		return 0
	}
	x := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return x
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.fail("short u64")
		return 0
	}
	x := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return x
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) boolv() bool  { return r.u8() == 1 }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += n
	return x
}

func (r *reader) str() string {
	ln := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)-r.pos) < ln {
		r.fail("short string")
		return ""
	}
	b := r.buf[r.pos : r.pos+int(ln)]
	r.pos += int(ln)
	if r.sc != nil { // a receive loop's frames keep repeating their strings
		return r.sc.intern(b)
	}
	return string(b)
}

func (r *reader) strs() []string {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("implausible string count")
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.str())
	}
	return out
}

func (r *reader) value() event.Value {
	if r.err != nil {
		return event.Invalid
	}
	var str func([]byte) string // nil copies
	if r.sc != nil {
		str = r.sc.intern
	}
	v, n, err := event.DecodeValueAlias(r.buf[r.pos:], str)
	if err != nil {
		r.err = err
		return event.Invalid
	}
	r.pos += n
	return v
}

// minTupleBytes is the least a tuple takes on the wire: request id, event
// time and a zero value count.
const minTupleBytes = 17

// tuples decodes a tuple list: the cells into r.sc's arrays when a scratch
// is set — valid until the scratch's next decode, the //scrub:pooled
// contract of Tuple.Values and the Tuples fields — and into fresh arrays
// otherwise. Either way all the tuples' Values share one flat backing
// array, each capped at its own length. String payloads are ordinary
// immutable strings that never alias the payload, so a value copied out
// of a borrowed cell is good for ever.
//
//scrub:hotpath
func (r *reader) tuples() []Tuple {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)-r.pos)/minTupleBytes {
		r.fail("implausible tuple count")
	}
	if r.err != nil || n == 0 {
		return nil
	}
	var ts []Tuple
	var vals []event.Value
	if r.sc != nil {
		ts, vals = r.sc.tuples[:0], r.sc.vals[:0]
	}
	if uint64(cap(ts)) < n {
		//scrub:allowalloc(one array per message without a scratch; growth only with one)
		ts = make([]Tuple, 0, n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		tp := Tuple{RequestID: r.u64(), TsNanos: r.i64()}
		nv := r.uvarint()
		// Every value takes at least its tag byte.
		if r.err != nil || nv > uint64(len(r.buf)-r.pos) {
			r.fail("implausible value count")
			break
		}
		if uint64(cap(vals)-len(vals)) < nv {
			// Sized for the rest of the batch at this tuple's width, which
			// the bytes left bound too. Tuples already decoded keep the
			// array they were cut from.
			need := min((n-i)*nv, uint64(len(r.buf)-r.pos))
			//scrub:allowalloc(one array per message without a scratch; growth only with one)
			vals = make([]event.Value, 0, max(need, 2*uint64(cap(vals))))
		}
		start := len(vals)
		for j := uint64(0); j < nv; j++ {
			vals = append(vals, r.value())
		}
		if nv > 0 {
			tp.Values = vals[start:len(vals):len(vals)]
		}
		ts = append(ts, tp)
	}
	if r.sc != nil {
		r.sc.tuples, r.sc.vals = ts, vals
	}
	return ts
}

func (r *reader) node() expr.Node {
	if r.err != nil {
		return nil
	}
	present := r.u8()
	if r.err != nil || present == 0 {
		return nil
	}
	n, used, err := expr.DecodeNode(r.buf[r.pos:])
	if err != nil {
		r.err = err
		return nil
	}
	r.pos += used
	return n
}

func (r *reader) streamStat() StreamStat {
	return StreamStat{
		HostID: r.str(), TypeIdx: r.u8(),
		Matched: r.u64(), Sampled: r.u64(), Drops: r.u64(),
		LateDrops: r.u64(), Evicted: r.boolv(),
		EffRate: r.f64(), BudgetShed: r.boolv(),
		CPUNs: r.u64(), Bytes: r.u64(),
	}
}

func (r *reader) queryStats() QueryStats {
	return QueryStats{
		Windows: r.u64(), Rows: r.u64(), TuplesIn: r.u64(),
		HostDrops: r.u64(), LateDrops: r.u64(), DegradedWindows: r.u64(),
		ShedWindows: r.u64(),
	}
}

func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("transport: decode: %d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

// AppendEncode serializes a message payload (without framing) prefixed by
// its type tag, appending to dst, so steady-state senders (connections,
// benchmark sinks) can reuse one buffer across messages instead of
// allocating per encode. dst may be nil; the appended buffer is returned.
//
//scrub:hotpath
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	//scrub:allowalloc(non-escaping scratch; the compiler keeps w on the stack)
	w := &writer{buf: dst}
	w.u8(m.msgTag())
	switch t := m.(type) {
	case SubmitQuery:
		w.str(t.Text)
	case QueryAccepted:
		w.u64(t.QueryID)
		w.strs(t.Columns)
		w.u32(t.NumHosts)
		w.u32(t.SampledHosts)
		w.i64(t.EndNanos)
	case QueryError:
		w.u64(t.QueryID)
		w.str(t.Msg)
	case ResultWindow:
		w.u64(t.QueryID)
		w.i64(t.WindowStart)
		w.i64(t.WindowEnd)
		w.strs(t.Columns)
		w.uvarint(uint64(len(t.Rows)))
		for _, row := range t.Rows {
			w.uvarint(uint64(len(row)))
			for _, v := range row {
				w.value(v)
			}
		}
		w.bool(t.Approx)
		w.uvarint(uint64(len(t.ErrBounds)))
		for _, e := range t.ErrBounds {
			w.f64(e)
		}
		w.u64(t.Stats.TuplesIn)
		w.u64(t.Stats.HostDrops)
		w.u64(t.Stats.LateDrops)
		w.u32(t.Stats.HostsReporting)
		w.bool(t.Degraded)
		w.bool(t.BudgetShed)
		w.uvarint(uint64(len(t.Streams)))
		for _, s := range t.Streams {
			w.streamStat(s)
		}
	case QueryDone:
		w.u64(t.QueryID)
		w.queryStats(t.Stats)
	case CancelQuery:
		w.u64(t.QueryID)
	case RegisterHost:
		w.str(t.HostID)
		w.str(t.Service)
		w.str(t.DC)
	case HostQuery:
		w.u64(t.QueryID)
		w.str(t.EventType)
		w.u8(t.TypeIdx)
		w.node(t.Pred)
		w.strs(t.Columns)
		w.f64(t.SampleEvents)
		w.i64(t.StartNanos)
		w.i64(t.EndNanos)
		w.f64(t.BudgetCPUPct)
		w.f64(t.BudgetBytesPerSec)
		w.i64(t.ReplayNanos)
		w.u32(t.ShardEpoch)
	case StopQuery:
		w.u64(t.QueryID)
	case DataHello:
		w.str(t.HostID)
	case TupleBatch:
		w.u64(t.QueryID)
		w.str(t.HostID)
		w.u8(t.TypeIdx)
		w.tuples(t.Tuples)
		w.u64(t.MatchedTotal)
		w.u64(t.SampledTotal)
		w.u64(t.QueueDrops)
		w.f64(t.EffRate)
		w.bool(t.BudgetShed)
		w.u64(t.CPUNs)
		w.u64(t.ShipBytes)
		w.u32(t.ReplayEpoch)
		w.bool(t.ReplayDone)
	case ListQueries:
		// no payload
	case QueryList:
		w.uvarint(uint64(len(t.Queries)))
		for _, q := range t.Queries {
			w.u64(q.QueryID)
			w.str(q.Text)
			w.strs(q.Columns)
			w.u32(q.Hosts)
			w.i64(q.EndNanos)
			w.queryStats(q.Stats)
		}
	case Ping:
		w.u64(t.Nonce)
	case Pong:
		w.u64(t.Nonce)
	default:
		if !appendEncodeCoord(w, m) {
			//scrub:allowalloc(cold error path for unknown message types)
			return nil, fmt.Errorf("transport: encode: unknown message %T", m)
		}
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// TupleBatchWireSize returns len(AppendEncode(nil, *b)) without writing a
// byte: the host shipper charges every batch it sends to the governor's
// byte budget, and encoding one a second time just to measure it cost a
// pass over the tuples and a buffer the size of a batch. It mirrors the
// TupleBatch arm of AppendEncode field for field; FuzzTupleBatchWireSize
// holds the two equal.
func TupleBatchWireSize(b *TupleBatch) int {
	// Everything but HostID and the tuples is fixed-width: tag, QueryID,
	// TypeIdx, three totals, EffRate, BudgetShed, CPUNs, ShipBytes,
	// ReplayEpoch, ReplayDone.
	n := 64 + event.UvarintLen(uint64(len(b.HostID))) + len(b.HostID) + event.UvarintLen(uint64(len(b.Tuples)))
	for i := range b.Tuples {
		vals := b.Tuples[i].Values
		n += 16 + event.UvarintLen(uint64(len(vals))) // RequestID, TsNanos, value count
		for j := range vals {
			n += event.EncodedSize(&vals[j])
		}
	}
	return n
}

// Decode parses a tagged payload produced by Encode. The message owns its
// memory.
func Decode(b []byte) (Message, error) { return decode(b, nil) }

// decode is the one decoder: with a scratch, tuple-carrying messages
// borrow its memory (RecvScratch); without, everything is allocated.
func decode(b []byte, sc *RecvScratch) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("transport: decode: empty payload")
	}
	r := &reader{buf: b, pos: 1, sc: sc}
	var m Message
	switch b[0] {
	case tagSubmitQuery:
		m = SubmitQuery{Text: r.str()}
	case tagQueryAccepted:
		m = QueryAccepted{
			QueryID: r.u64(), Columns: r.strs(),
			NumHosts: r.u32(), SampledHosts: r.u32(), EndNanos: r.i64(),
		}
	case tagQueryError:
		m = QueryError{QueryID: r.u64(), Msg: r.str()}
	case tagResultWindow:
		rw := ResultWindow{
			QueryID: r.u64(), WindowStart: r.i64(), WindowEnd: r.i64(),
			Columns: r.strs(),
		}
		nRows := r.uvarint()
		if nRows > uint64(len(b)) {
			r.fail("implausible row count")
		}
		if r.err == nil {
			rw.Rows = make([][]event.Value, 0, nRows)
			for i := uint64(0); i < nRows && r.err == nil; i++ {
				nv := r.uvarint()
				if nv > uint64(len(b)) {
					r.fail("implausible value count")
					break
				}
				row := make([]event.Value, 0, nv)
				for j := uint64(0); j < nv; j++ {
					row = append(row, r.value())
				}
				rw.Rows = append(rw.Rows, row)
			}
		}
		rw.Approx = r.boolv()
		nb := r.uvarint()
		if nb > uint64(len(b)) {
			r.fail("implausible bound count")
		}
		if r.err == nil {
			rw.ErrBounds = make([]float64, 0, nb)
			for i := uint64(0); i < nb; i++ {
				rw.ErrBounds = append(rw.ErrBounds, r.f64())
			}
		}
		rw.Stats = WindowStats{
			TuplesIn: r.u64(), HostDrops: r.u64(), LateDrops: r.u64(),
			HostsReporting: r.u32(),
		}
		rw.Degraded = r.boolv()
		rw.BudgetShed = r.boolv()
		ns := r.uvarint()
		if ns > uint64(len(b)) {
			r.fail("implausible stream count")
		}
		if r.err == nil && ns > 0 {
			rw.Streams = make([]StreamStat, 0, ns)
			for i := uint64(0); i < ns && r.err == nil; i++ {
				rw.Streams = append(rw.Streams, r.streamStat())
			}
		}
		m = rw
	case tagQueryDone:
		m = QueryDone{QueryID: r.u64(), Stats: r.queryStats()}
	case tagCancelQuery:
		m = CancelQuery{QueryID: r.u64()}
	case tagRegisterHost:
		m = RegisterHost{HostID: r.str(), Service: r.str(), DC: r.str()}
	case tagHostQuery:
		m = HostQuery{
			QueryID: r.u64(), EventType: r.str(), TypeIdx: r.u8(),
			Pred: r.node(), Columns: r.strs(), SampleEvents: r.f64(),
			StartNanos: r.i64(), EndNanos: r.i64(),
			BudgetCPUPct: r.f64(), BudgetBytesPerSec: r.f64(),
			ReplayNanos: r.i64(), ShardEpoch: r.u32(),
		}
	case tagStopQuery:
		m = StopQuery{QueryID: r.u64()}
	case tagDataHello:
		m = DataHello{HostID: r.str()}
	case tagTupleBatch:
		tb := TupleBatch{QueryID: r.u64(), HostID: r.str(), TypeIdx: r.u8(), Tuples: r.tuples()}
		tb.MatchedTotal = r.u64()
		tb.SampledTotal = r.u64()
		tb.QueueDrops = r.u64()
		tb.EffRate = r.f64()
		tb.BudgetShed = r.boolv()
		tb.CPUNs = r.u64()
		tb.ShipBytes = r.u64()
		tb.ReplayEpoch = r.u32()
		tb.ReplayDone = r.boolv()
		m = tb
	case tagListQueries:
		m = ListQueries{}
	case tagQueryList:
		ql := QueryList{}
		n := r.uvarint()
		if n > uint64(len(b)) {
			r.fail("implausible query count")
		}
		if r.err == nil {
			ql.Queries = make([]QuerySummary, 0, n)
			for i := uint64(0); i < n && r.err == nil; i++ {
				ql.Queries = append(ql.Queries, QuerySummary{
					QueryID: r.u64(), Text: r.str(), Columns: r.strs(),
					Hosts: r.u32(), EndNanos: r.i64(),
					Stats: r.queryStats(),
				})
			}
		}
		m = ql
	case tagPing:
		m = Ping{Nonce: r.u64()}
	case tagPong:
		m = Pong{Nonce: r.u64()}
	default:
		cm, ok := decodeCoord(b[0], r)
		if !ok {
			return nil, fmt.Errorf("transport: decode: unknown tag %d", b[0])
		}
		m = cm
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return m, nil
}
