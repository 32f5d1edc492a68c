package transport

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"scrub/internal/event"
)

// owned returns m by value: a borrowed sub-batch, manifest or ack
// arrives by pointer.
func owned(m Message) Message {
	switch p := m.(type) {
	case *ShardSubBatch:
		return *p
	case *ShardBatchAck:
		return *p
	case *BatchManifest:
		return *p
	case *ManifestAck:
		return *p
	}
	return m
}

// frames builds a stream of tuple-carrying and plain messages whose tuple
// counts and widths go up and down, so a scratch is grown, reused below
// its capacity and grown again.
func scratchFrames(rng *rand.Rand) []Message {
	val := func() event.Value {
		switch rng.Intn(7) {
		case 0:
			return event.Str(fmt.Sprintf("reason-%d", rng.Intn(5)))
		case 1:
			return event.Float(math.Float64frombits(rng.Uint64()))
		case 2:
			return event.Invalid
		case 3:
			return event.StrList("a", fmt.Sprint(rng.Intn(9)))
		case 4:
			return event.Bool(rng.Intn(2) == 0)
		case 5:
			return event.TimeNanos(rng.Int63())
		}
		return event.Int(rng.Int63())
	}
	tuples := func() []Tuple {
		var ts []Tuple
		for n := rng.Intn(40) * rng.Intn(4); n > 0; n-- {
			tp := Tuple{RequestID: rng.Uint64(), TsNanos: rng.Int63()}
			for w := rng.Intn(5); w > 0; w-- {
				tp.Values = append(tp.Values, val())
			}
			ts = append(ts, tp)
		}
		return ts
	}
	var out []Message
	for i := 0; i < 60; i++ {
		host := fmt.Sprintf("host-%d", i/7) // runs of one host id, as one connection sees
		switch rng.Intn(5) {
		case 0:
			out = append(out, ShardCollectReq{Seq: uint64(i), QueryID: 3, Bound: rng.Int63()})
		case 1:
			out = append(out, TupleBatch{QueryID: 3, HostID: host, Tuples: tuples(), MatchedTotal: uint64(i)})
		default:
			out = append(out, ShardSubBatch{Seq: uint64(i), QueryID: 3, HostID: host, TypeIdx: uint8(i % 2), Tuples: tuples()})
		}
	}
	return out
}

// A message received through a scratch is the message received without
// one, frame after frame; what it borrowed is overwritten by the next
// receive — and a Value copied out of a borrowed cell is not.
func TestRecvBorrowedMatchesRecv(t *testing.T) {
	sent := scratchFrames(rand.New(rand.NewSource(5)))
	var wire bytes.Buffer
	w := NewConn(byteConn{w: &wire})
	for _, m := range sent {
		if err := w.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	plain := NewConn(byteConn{r: bytes.NewReader(wire.Bytes())})
	borrowed := NewConn(byteConn{r: bytes.NewReader(wire.Bytes())})
	var sc RecvScratch
	var keptVal, keptWant []event.Value
	for i, m := range sent {
		want, err := plain.Recv()
		if err != nil {
			t.Fatalf("frame %d: Recv: %v", i, err)
		}
		got, err := borrowed.RecvBorrowed(&sc)
		if err != nil {
			t.Fatalf("frame %d: RecvBorrowed: %v", i, err)
		}
		if sb, isSub := m.(ShardSubBatch); isSub {
			p, ok := got.(*ShardSubBatch)
			if !ok {
				t.Fatalf("frame %d: a borrowed sub-batch arrived as %T", i, got)
			}
			if len(sb.Tuples) > 0 && (sc.cells == nil || &p.Tuples[0] != &sc.cells.tuples[0]) {
				t.Fatalf("frame %d: the sub-batch's tuples are not the scratch's cells", i)
			}
		}
		wantEnc, _ := AppendEncode(nil, want)
		gotEnc, err := AppendEncode(nil, owned(got))
		if err != nil || !bytes.Equal(gotEnc, wantEnc) {
			t.Fatalf("frame %d (%s): borrowed decode differs from the allocating one (%v)", i, Name(want), err)
		}
		// Copy values out of the borrowed cells, then let the scratch go:
		// the copies must still read the same after the cells are garbage.
		if p, ok := got.(*ShardSubBatch); ok {
			for _, tp := range p.Tuples {
				keptVal = append(keptVal, tp.Values...)
			}
			for _, tp := range want.(ShardSubBatch).Tuples {
				keptWant = append(keptWant, tp.Values...)
			}
			sc.Poison()
		}
	}
	if len(keptVal) == 0 {
		t.Fatal("no values were kept")
	}
	var a, b []byte
	for i := range keptVal {
		a = event.AppendValue(a, keptVal[i])
		b = event.AppendValue(b, keptWant[i])
	}
	if !bytes.Equal(a, b) {
		t.Fatal("values copied out of borrowed cells changed when the scratch was reused")
	}
}

// Receiving a 128-tuple sub-batch — an int, a float and a low-cardinality
// string column — through the scratch allocates nothing once the first
// frame has sized it and its strings have been seen.
func TestRecvBorrowedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	reasons := []string{"budget", "geo", "frequency_cap", ""} // no two share a table slot, nor one the host id's
	sb := ShardSubBatch{Seq: 1, QueryID: 7, HostID: "bid-sj-1"}
	for i := 0; i < 128; i++ {
		sb.Tuples = append(sb.Tuples, Tuple{RequestID: uint64(i), TsNanos: int64(i), Values: []event.Value{
			event.Int(int64(i)), event.Float(float64(i) / 3), event.Str(reasons[i%len(reasons)]),
		}})
	}
	var wire bytes.Buffer
	w := NewConn(byteConn{w: &wire})
	const frames = 64
	for i := 0; i < frames; i++ {
		if err := w.Send(&sb); err != nil {
			t.Fatal(err)
		}
	}
	c := NewConn(byteConn{r: bytes.NewReader(wire.Bytes())})
	var sc RecvScratch
	recv := func() {
		m, err := c.RecvBorrowed(&sc)
		if err != nil {
			t.Fatal(err)
		}
		p := m.(*ShardSubBatch)
		if len(p.Tuples) != 128 || p.HostID != "bid-sj-1" {
			t.Fatalf("received %d tuples from %q", len(p.Tuples), p.HostID)
		}
		if got, _ := p.Tuples[6].Values[2].AsStr(); got != reasons[6%len(reasons)] {
			t.Fatalf("tuple 6 carries reason %q", got)
		}
	}
	for i := 0; i < 4; i++ {
		recv() // sizes the scratch, fills the string table; the read buffer doubles up to what it keeps
	}
	if n := testing.AllocsPerRun(frames-5, recv); n != 0 {
		t.Errorf("RecvBorrowed allocates %v times per 128-tuple frame, want 0", n)
	}
}

// Encoding a 128-tuple batch into a reused buffer allocates nothing: a
// TupleBatch by value, as a host's sink sends it, and a *ShardSubBatch,
// as a router sends its splits.
func TestAppendEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var tuples []Tuple
	for i := 0; i < 128; i++ {
		tuples = append(tuples, Tuple{RequestID: uint64(i), TsNanos: int64(i), Values: []event.Value{
			event.Int(int64(i)), event.Float(float64(i) / 3), event.Str("geo"), event.Invalid,
		}})
	}
	for _, m := range []Message{
		TupleBatch{QueryID: 7, HostID: "bid-sj-1", Tuples: tuples, MatchedTotal: 128, SampledTotal: 128, EffRate: 1},
		&ShardSubBatch{Seq: 1, QueryID: 7, HostID: "bid-sj-1", Tuples: tuples},
	} {
		buf, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { buf, _ = AppendEncode(buf[:0], m) }); n != 0 {
			t.Errorf("AppendEncode(%T) into a reused buffer allocates %v times, want 0", m, n)
		}
	}
}

// A hostile length prefix costs a receive loop at most 64 KiB before the
// short read surfaces, with a scratch or without.
func TestRecvHostilePrefix(t *testing.T) {
	data := []byte{0xff, 0xff, 0xff, 0x00, 1, 2, 3} // claims 16 MiB - 1, holds 3 bytes
	c := NewConn(byteConn{r: bytes.NewReader(data)})
	if m, err := c.RecvBorrowed(new(RecvScratch)); err == nil || m != nil {
		t.Fatalf("a truncated frame was accepted: %v, %v", m, err)
	}
	if len(c.rbuf) > maxReadBuf {
		t.Fatalf("the read buffer grew to %d bytes on a lying length prefix", len(c.rbuf))
	}
}

// stalledConn reads nothing and reports no error, for ever.
type stalledConn struct{ byteConn }

func (stalledConn) Read([]byte) (int, error) { return 0, nil }

// A net.Conn that makes no progress fails the receive instead of spinning
// it.
func TestRecvNoProgress(t *testing.T) {
	if _, err := NewConn(stalledConn{}).Recv(); err != io.ErrNoProgress {
		t.Fatalf("Recv on a stalled connection: %v, want io.ErrNoProgress", err)
	}
}

// The read buffer is sized by the traffic. A connection that carries acks
// one round trip at a time keeps a small one; one whose frames arrive
// faster than they are read gets room for a read's worth, up to 64 KiB;
// one oversized frame is read into a buffer that goes once it is decoded
// — without losing the frame read in behind it; and once the last frame
// buffered, 16 KiB, is decoded, the connection holds at most what a
// receive starts on.
func TestReadBufferPolicy(t *testing.T) {
	var wire bytes.Buffer
	w := NewConn(byteConn{w: &wire})
	send := func(m Message) {
		t.Helper()
		if err := w.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	const acks = 1000
	send(ShardBatchAck{})
	ackLen := wire.Len() // an ack's fields are all fixed-width
	for i := 1; i < acks; i++ {
		send(ShardBatchAck{Seq: uint64(i), Known: true, HasTs: true, MaxTs: int64(i)})
	}
	big := ShardPartials{Seq: acks, Partials: []WindowPartial{{Start: 1, End: 2, Data: bytes.Repeat([]byte{7}, 1<<20)}}}
	send(big)
	send(ShardBatchAck{Seq: acks + 1})
	last := ShardPartials{Seq: acks + 2, Partials: []WindowPartial{{Start: 1, End: 2, Data: bytes.Repeat([]byte{8}, 16<<10)}}}
	send(last)
	recvAck := func(c *Conn, seq uint64) {
		t.Helper()
		m, err := c.Recv()
		if ack, ok := m.(ShardBatchAck); err != nil || !ok || ack.Seq != seq {
			t.Fatalf("ack %d: got %v, %v", seq, m, err)
		}
	}

	// As the caller of an RPC sees them: one ack a read.
	nc := &chunkConn{byteConn: byteConn{r: bytes.NewReader(wire.Bytes())}, sizes: []byte{byte(ackLen)}}
	c := NewConn(nc)
	for i := 0; i < acks; i++ {
		recvAck(c, uint64(i))
	}
	if len(c.rbuf) > 4<<10 {
		t.Errorf("after %d acks the read buffer holds %d bytes, want at most 4 KiB", acks, len(c.rbuf))
	}
	nc.sizes = nil // the rest arrives as fast as it is read
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if sp := m.(ShardPartials); len(sp.Partials) != 1 || !bytes.Equal(sp.Partials[0].Data, big.Partials[0].Data) {
		t.Fatal("the 1 MiB frame did not survive the trip")
	}
	if len(c.rbuf) > maxReadBuf {
		t.Errorf("after a 1 MiB frame the connection keeps a %d-byte read buffer, want at most 64 KiB", len(c.rbuf))
	}
	recvAck(c, acks+1)
	idle := func(c *Conn) {
		t.Helper()
		m, err := c.Recv()
		if sp, ok := m.(ShardPartials); err != nil || !ok || sp.Seq != last.Seq {
			t.Fatalf("the last frame: got %v, %v", m, err)
		}
		if len(c.rbuf) > minReadBuf {
			t.Errorf("with every buffered frame decoded the connection holds a %d-byte read buffer, want at most %d", len(c.rbuf), minReadBuf)
		}
	}
	idle(c)

	// As a receiver that has fallen behind a stream sees them.
	c = NewConn(byteConn{r: bytes.NewReader(wire.Bytes())})
	for i := 0; i < acks; i++ {
		recvAck(c, uint64(i))
	}
	if len(c.rbuf) != maxReadBuf {
		t.Errorf("behind a stream of frames the read buffer holds %d bytes, want the %d it may keep", len(c.rbuf), maxReadBuf)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	recvAck(c, acks+1)
	idle(c)
}
