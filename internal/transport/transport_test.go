package transport

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/obs"
)

func sampleMessages() []Message {
	pred := expr.Binary{Op: expr.OpGt,
		L: expr.FieldRef{Type: "bid", Name: "bid_price"},
		R: expr.Lit{Val: event.Float(1.0)},
	}
	return []Message{
		SubmitQuery{Text: "select count(*) from bid"},
		QueryAccepted{QueryID: 7, Columns: []string{"user_id", "COUNT(*)"}, NumHosts: 100, SampledHosts: 10, EndNanos: 12345},
		QueryError{QueryID: 7, Msg: "boom"},
		QueryError{Msg: "rejected"},
		ResultWindow{
			QueryID: 7, WindowStart: 10, WindowEnd: 20,
			Columns: []string{"user_id", "n"},
			Rows: [][]event.Value{
				{event.Int(42), event.Int(3)},
				{event.Int(43), event.Int(1)},
			},
			Approx:    true,
			ErrBounds: []float64{math.NaN(), 2.5},
			Stats:     WindowStats{TuplesIn: 4, HostDrops: 1, LateDrops: 2, HostsReporting: 3},
		},
		ResultWindow{QueryID: 9, Columns: []string{"x"}}, // empty window
		ResultWindow{ // degraded window: one stream evicted
			QueryID: 11, WindowStart: 30, WindowEnd: 40,
			Columns:  []string{"n"},
			Rows:     [][]event.Value{{event.Int(5)}},
			Degraded: true,
			Streams: []StreamStat{
				{HostID: "h1", TypeIdx: 0, Matched: 10, Sampled: 10, Drops: 0},
				{HostID: "h2", TypeIdx: 0, Matched: 7, Sampled: 7, Drops: 2, LateDrops: 1, Evicted: true},
			},
			Stats: WindowStats{TuplesIn: 10, HostsReporting: 1},
		},
		QueryDone{QueryID: 7, Stats: QueryStats{Windows: 2, Rows: 3, TuplesIn: 4, HostDrops: 1, LateDrops: 0}},
		CancelQuery{QueryID: 7},
		RegisterHost{HostID: "bid-sj-1", Service: "BidServers", DC: "DC1", Queries: []uint64{7, 9}},
		HostQuery{
			QueryID: 7, EventType: "bid", TypeIdx: 1, Pred: pred,
			Columns: []string{"user_id", "bid_price"}, SampleEvents: 0.1, SampleByRequest: true,
			StartNanos: 100, EndNanos: 200, ReplayNanos: 30_000_000_000,
		},
		HostQuery{QueryID: 8, EventType: "click"}, // nil pred, no columns
		HostQuery{ // budgeted, pinned to a shard-map epoch
			QueryID: 9, EventType: "bid", Columns: []string{"user_id"}, SampleEvents: 1,
			StartNanos: 100, EndNanos: 200, BudgetCPUPct: 2.5, BudgetBytesPerSec: 1 << 20, ShardEpoch: 3,
		},
		StopQuery{QueryID: 7},
		DataHello{HostID: "bid-sj-1"},
		TupleBatch{
			QueryID: 7, HostID: "bid-sj-1", TypeIdx: 0,
			Tuples: []Tuple{
				{RequestID: 1, TsNanos: 11, Values: []event.Value{event.Int(42), event.Float(1.5)}},
				{RequestID: 2, TsNanos: 12, Values: []event.Value{event.Int(43), event.Invalid}},
			},
			MatchedTotal: 100, SampledTotal: 10, QueueDrops: 3,
			ReplayEpoch: 1,
		},
		TupleBatch{QueryID: 8, HostID: "h"}, // empty batch (counters only)
		TupleBatch{QueryID: 9, HostID: "h", ReplayEpoch: 1, ReplayDone: true},
		TupleBatch{ // governor accounting
			QueryID: 10, HostID: "bid-sj-2", TypeIdx: 2,
			Tuples:       []Tuple{{RequestID: 3, TsNanos: 13, Values: []event.Value{event.Str("geo"), event.Bool(true)}}},
			MatchedTotal: 64, SampledTotal: 8, EffRate: 0.125, BudgetShed: true, CPUNs: 1 << 33, ShipBytes: 4096,
		},
		ListQueries{},
		QueryList{Queries: []QuerySummary{
			{QueryID: 7, Text: "select count(*) from bid", Columns: []string{"count(*)"},
				Hosts: 3, EndNanos: 99, Stats: QueryStats{Windows: 1, Rows: 2, TuplesIn: 3}},
			{QueryID: 8},
		}},
		QueryList{},
		ShardStart{
			Seq: 1, Fence: 2, QueryID: 7, Text: "select count(*) from bid",
			StartNanos: 100, EndNanos: 200,
			TotalHosts: 100, SampledHosts: 10, LatenessNanos: 5e9,
		},
		ShardAck{Seq: 1},
		ShardAck{Seq: 2, Err: "no such query"},
		ShardSubBatch{
			Seq: 3, QueryID: 7, HostID: "bid-sj-1", TypeIdx: 1, EffRate: 0.25,
			Tuples: []Tuple{
				{RequestID: 4, TsNanos: 44, Values: []event.Value{event.Str("x")}},
			},
		},
		ShardSubBatch{Seq: 4, QueryID: 7, HostID: "h"}, // empty split
		ShardBatchAck{Seq: 3, Known: true, HasTs: true, MaxTs: 44, LateDelta: 1, OverflowDelta: 3},
		ShardBatchAck{Seq: 4},
		ShardCollectReq{Seq: 5, Fence: 2, QueryID: 7, Bound: 1000},
		ShardPartials{
			Seq: 5,
			Partials: []WindowPartial{
				{Start: 0, End: 10, Data: []byte{1, 2, 3}},
				{Start: 10, End: 20, Data: nil},
			},
		},
		ShardPartials{Seq: 6},
		ShardPartials{Seq: 7, Stale: true},
		ShardStopReq{Seq: 7, Fence: 2, QueryID: 7},
		ShardStatsReq{Seq: 8, QueryID: 7},
		ShardStatsResp{Seq: 8, Found: true, TuplesIn: 99, ActiveQueries: 2},
		BatchManifest{
			Seq: 9,
			TupleBatch: TupleBatch{
				QueryID: 7, HostID: "bid-sj-1", TypeIdx: 1,
				MatchedTotal: 100, SampledTotal: 10, QueueDrops: 3,
				EffRate: 0.25, BudgetShed: true, CPUNs: 5, ShipBytes: 6,
				ReplayEpoch: 1, ReplayDone: true,
			},
			RawTuples: 10, HasTs: true, MaxTs: 44, LateDelta: 1, OverflowDelta: 2, RouteDrops: 2,
		},
		BatchManifest{Seq: 10, TupleBatch: TupleBatch{QueryID: 8, HostID: "h"}},
		ManifestAck{Seq: 9},
		ShardHello{ShardID: "shard-0", DataAddr: "127.0.0.1:7101"},
		ShardMap{Epoch: 3, Fence: 2, Addrs: []string{"127.0.0.1:7101", "127.0.0.1:7102"}},
		ShardMap{},
		ShardStatusReq{},
		ShardStatusList{
			Epoch: 3, Merges: 12, Rebalances: 2, EvictedStreams: 1,
			Shards: []ShardStatus{
				{Index: 0, Addr: "127.0.0.1:7101", ActiveQueries: 1, TuplesIn: 50},
				{Index: 1, Addr: "127.0.0.1:7102", Down: true, LagNanos: 5e9},
			},
		},
		ShardStatusList{},
		ShardFence{Seq: 11, Fence: 3},
		ShardFenceAck{Seq: 11, Fence: 3, Ok: true, Queries: []uint64{7, 9}},
		ShardFenceAck{Seq: 12, Fence: 4},
		RepAppend{
			Seq: 13, Term: 2, MapEpoch: 2, Addrs: []string{"127.0.0.1:7101", "127.0.0.1:7102"},
			Queries: []RepEntry{
				{
					Start: ShardStart{
						QueryID: 7, Text: "select count(*) from bid",
						StartNanos: 100, EndNanos: 200, TotalHosts: 3, SampledHosts: 3,
					},
					PinEpoch: 2, PinAddrs: []string{"127.0.0.1:7101", "127.0.0.1:7102"},
					ReplayDeadline: 500,
				},
				{Start: ShardStart{QueryID: 9, Text: "select count(*) from imp"}, PinEpoch: 1},
			},
			Standbys: []string{"127.0.0.1:7900", "127.0.0.1:7901"},
		},
		RepAppend{Seq: 14, Term: 2, Beat: true}, // heartbeat
		RepAck{Seq: 13, Term: 2, Ok: true},
		RepAck{Seq: 15, Term: 3},
	}
}

// msgEqual compares messages, treating NaN float slices as equal.
func msgEqual(a, b Message) bool {
	ra, ok1 := a.(ResultWindow)
	rb, ok2 := b.(ResultWindow)
	if ok1 && ok2 {
		if len(ra.ErrBounds) != len(rb.ErrBounds) {
			return false
		}
		for i := range ra.ErrBounds {
			x, y := ra.ErrBounds[i], rb.ErrBounds[i]
			if math.IsNaN(x) != math.IsNaN(y) {
				return false
			}
			if !math.IsNaN(x) && x != y {
				return false
			}
		}
		ra.ErrBounds, rb.ErrBounds = nil, nil
		return reflect.DeepEqual(ra, rb)
	}
	return reflect.DeepEqual(a, b)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		buf, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("AppendEncode(nil, %s): %v", Name(m), err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%s): %v", Name(m), err)
		}
		if !msgEqual(normalize(got), normalize(m)) {
			t.Errorf("round trip %s:\n  in:  %#v\n  out: %#v", Name(m), m, got)
		}
	}
}

// normalize maps empty slices to nil so DeepEqual compares cleanly.
func normalize(m Message) Message {
	switch t := m.(type) {
	case ResultWindow:
		if len(t.Rows) == 0 {
			t.Rows = nil
		}
		if len(t.Columns) == 0 {
			t.Columns = nil
		}
		if len(t.ErrBounds) == 0 {
			t.ErrBounds = nil
		}
		return t
	case TupleBatch:
		if len(t.Tuples) == 0 {
			t.Tuples = nil
		}
		return t
	case QueryAccepted:
		if len(t.Columns) == 0 {
			t.Columns = nil
		}
		return t
	case HostQuery:
		if len(t.Columns) == 0 {
			t.Columns = nil
		}
		return t
	case QueryList:
		if len(t.Queries) == 0 {
			t.Queries = nil
		}
		for i := range t.Queries {
			if len(t.Queries[i].Columns) == 0 {
				t.Queries[i].Columns = nil
			}
		}
		return t
	case ShardSubBatch:
		if len(t.Tuples) == 0 {
			t.Tuples = nil
		}
		return t
	case ShardPartials:
		for i := range t.Partials {
			if len(t.Partials[i].Data) == 0 {
				t.Partials[i].Data = nil
			}
		}
		return t
	case ShardMap:
		if len(t.Addrs) == 0 {
			t.Addrs = nil
		}
		return t
	case RepAppend:
		if len(t.Addrs) == 0 {
			t.Addrs = nil
		}
		if len(t.Standbys) == 0 {
			t.Standbys = nil
		}
		for i := range t.Queries {
			if len(t.Queries[i].PinAddrs) == 0 {
				t.Queries[i].PinAddrs = nil
			}
		}
		return t
	default:
		return m
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty payload should fail")
	}
	if _, err := Decode([]byte{200}); err == nil {
		t.Error("unknown tag should fail")
	}
	// Truncations of every sample message must error, never panic.
	for _, m := range sampleMessages() {
		buf, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(buf); i++ {
			if _, err := Decode(buf[:i]); err == nil {
				t.Errorf("%s truncated at %d should fail", Name(m), i)
			}
		}
		// Trailing garbage must be rejected too.
		if _, err := Decode(append(append([]byte{}, buf...), 0xFF)); err == nil {
			t.Errorf("%s with trailing byte should fail", Name(m))
		}
	}
}

func TestNames(t *testing.T) {
	for _, m := range sampleMessages() {
		if Name(m) == "" || Name(m)[0] == 'u' {
			t.Errorf("Name(%T) = %q", m, Name(m))
		}
	}
}

func TestPipeSendRecv(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	msgs := sampleMessages()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, m := range msgs {
			if err := a.Send(m); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	for _, want := range msgs {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if !msgEqual(normalize(got), normalize(want)) {
			t.Errorf("pipe mismatch: got %s want %s", Name(got), Name(want))
		}
	}
	wg.Wait()
}

func TestTCPSendRecv(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		// Echo everything back.
		for {
			m, err := c.Recv()
			if err != nil {
				done <- nil // client closed
				return
			}
			if err := c.Send(m); err != nil {
				done <- err
				return
			}
		}
	}()

	c, err := Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sampleMessages() {
		if err := c.Send(m); err != nil {
			t.Fatalf("Send: %v", err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if !msgEqual(normalize(got), normalize(m)) {
			t.Errorf("tcp echo mismatch for %s", Name(m))
		}
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSend(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const per = 50
	const senders = 4
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send(ManifestAck{Seq: uint64(s*1000 + i)}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(s)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < per*senders; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		ack, ok := m.(ManifestAck)
		if !ok {
			t.Fatalf("got %s", Name(m))
		}
		if seen[ack.Seq] {
			t.Fatalf("duplicate seq %d (frame interleaving?)", ack.Seq)
		}
		seen[ack.Seq] = true
	}
	wg.Wait()
}

// An oversize message is refused before anything reaches the wire — or the
// metrics — and leaves the connection usable: the next Send is counted,
// once, as its payload plus the frame header.
func TestOversizeFrameRejected(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	met := NewConnMetrics(obs.NewRegistry())
	a.SetMetrics(met)
	big := TupleBatch{QueryID: 1, HostID: string(make([]byte, MaxFrame+1))}
	if err := a.Send(big); err == nil {
		t.Error("oversize frame should be rejected at send")
	}
	if f, n := met.FramesSent.Value(), met.BytesSent.Value(); f != 0 || n != 0 {
		t.Errorf("a refused frame was charged: %d frames, %d bytes", f, n)
	}
	small := TupleBatch{QueryID: 1, HostID: "h1", Tuples: []Tuple{{RequestID: 9, TsNanos: 5, Values: []event.Value{event.Int(3)}}}}
	recvd := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		recvd <- err
	}()
	if err := a.Send(small); err != nil {
		t.Fatalf("Send after a refused frame: %v", err)
	}
	if err := <-recvd; err != nil {
		t.Fatalf("Recv: %v", err)
	}
	payload, err := AppendEncode(nil, small)
	if err != nil {
		t.Fatal(err)
	}
	if f, n := met.FramesSent.Value(), met.BytesSent.Value(); f != 1 || n != uint64(len(payload)+4) {
		t.Errorf("after one %d-byte payload: %d frames, %d bytes sent", len(payload), f, n)
	}
}

func TestCloseIdempotent(t *testing.T) {
	a, b := Pipe()
	b.Close()
	if err := a.Close(); err != nil {
		t.Errorf("first close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func BenchmarkTupleBatchEncode(b *testing.B) {
	tuples := make([]Tuple, 100)
	for i := range tuples {
		tuples[i] = Tuple{RequestID: uint64(i), TsNanos: int64(i),
			Values: []event.Value{event.Int(int64(i)), event.Str("san jose"), event.Float(1.5)}}
	}
	batch := TupleBatch{QueryID: 1, HostID: "h1", Tuples: tuples, MatchedTotal: 100, SampledTotal: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendEncode(nil, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTupleBatchDecode(b *testing.B) {
	tuples := make([]Tuple, 100)
	for i := range tuples {
		tuples[i] = Tuple{RequestID: uint64(i), TsNanos: int64(i),
			Values: []event.Value{event.Int(int64(i)), event.Str("san jose"), event.Float(1.5)}}
	}
	buf, err := AppendEncode(nil, TupleBatch{QueryID: 1, HostID: "h1", Tuples: tuples})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	// AppendEncode into a reused buffer must produce byte-identical
	// payloads to an encode into a fresh one, message after message.
	var buf []byte
	for _, m := range sampleMessages() {
		want, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("AppendEncode(nil, %s): %v", Name(m), err)
		}
		got, err := AppendEncode(buf[:0], m)
		if err != nil {
			t.Fatalf("AppendEncode(%s): %v", Name(m), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendEncode(%s) into a reused buffer differs from a fresh encode", Name(m))
		}
		buf = got // reuse across iterations, like a connection does
	}
}

func TestAppendEncodePreservesPrefix(t *testing.T) {
	prefix := []byte("hdr:")
	out, err := AppendEncode(append([]byte(nil), prefix...), ManifestAck{Seq: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("existing bytes must be preserved")
	}
	m, err := Decode(out[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := m.(ManifestAck); !ok || ack.Seq != 7 {
		t.Errorf("decoded %#v", m)
	}
}
