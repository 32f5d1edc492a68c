package host

import (
	"sync"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/obs"
	"scrub/internal/replay"
	"scrub/internal/transport"
)

// The zero-allocation guarantees below are regression tests for the
// chunked shipping pipeline: Log must not touch the heap either when no
// query is active or on the match-and-enqueue path (projection lands in
// pooled chunk memory, sampling is an atomic decrement, and only full
// chunks cross a channel).

func TestLogNoQueriesZeroAllocs(t *testing.T) {
	a, err := New(Config{
		HostID: "h", Service: "s", Catalog: testCatalog(),
		Sink:          SinkFunc(func(transport.TupleBatch) error { return nil }),
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ev := bidEvent(1, 42, "sf", 1.0, time.Now().UnixNano())
	if allocs := testing.AllocsPerRun(1000, func() { a.Log(ev) }); allocs != 0 {
		t.Errorf("no-query Log allocates %.1f/op, want 0", allocs)
	}
}

func TestLogMatchAndEnqueueZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; AllocsPerRun over the pooled evaluation context is meaningless")
	}
	// BatchSize 4096 with an hour-long flush interval keeps the whole
	// measurement inside one pooled chunk, so the steady state — predicate,
	// counters, projection, chunk append — is what AllocsPerRun sees.
	a, err := New(Config{
		HostID: "h", Service: "s", Catalog: testCatalog(),
		Sink:      SinkFunc(func(transport.TupleBatch) error { return nil }),
		QueueSize: 1 << 16, BatchSize: 4096,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid",
		Pred: expr.Binary{Op: expr.OpGt,
			L: expr.FieldRef{Type: "bid", Name: "bid_price"},
			R: expr.Lit{Val: event.Float(0.5)}},
		Columns: []string{"user_id", "city"},
	}); err != nil {
		t.Fatal(err)
	}
	ev := bidEvent(1, 42, "sf", 1.0, time.Now().UnixNano())
	a.Log(ev) // allocate and size the first chunk
	if allocs := testing.AllocsPerRun(1000, func() { a.Log(ev) }); allocs != 0 {
		t.Errorf("match-and-enqueue Log allocates %.1f/op, want 0", allocs)
	}
	a.Flush()
	if st := a.Stats(); st.Shipped == 0 {
		t.Error("measured tuples never shipped")
	}
}

func TestLogInstrumentedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; AllocsPerRun over the pooled evaluation context is meaningless")
	}
	// With a metrics registry attached, Log additionally bumps the obs
	// counters, times 1-in-64 calls into the latency histogram, and charges
	// 1-in-64 matches to the query's cost meter. None of that may allocate:
	// the instruments are fixed-shape atomics registered once at startup.
	a, err := New(Config{
		HostID: "h", Service: "s", Catalog: testCatalog(),
		Sink:      SinkFunc(func(transport.TupleBatch) error { return nil }),
		QueueSize: 1 << 16, BatchSize: 4096,
		FlushInterval: time.Hour,
		Metrics:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid",
		Pred: expr.Binary{Op: expr.OpGt,
			L: expr.FieldRef{Type: "bid", Name: "bid_price"},
			R: expr.Lit{Val: event.Float(0.5)}},
		Columns: []string{"user_id", "city"},
	}); err != nil {
		t.Fatal(err)
	}
	ev := bidEvent(1, 42, "sf", 1.0, time.Now().UnixNano())
	a.Log(ev) // allocate and size the first chunk
	if allocs := testing.AllocsPerRun(1000, func() { a.Log(ev) }); allocs != 0 {
		t.Errorf("instrumented Log allocates %.1f/op, want 0", allocs)
	}
}

func TestLogTwoQueriesZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; AllocsPerRun over the pooled evaluation context is meaningless")
	}
	// With two subscribers on the type, Log fans one memoized predicate
	// node out to both, each projecting into its own chunk — it must stay
	// allocation-free too.
	a, err := New(Config{
		HostID: "h", Service: "s", Catalog: testCatalog(),
		Sink:      SinkFunc(func(transport.TupleBatch) error { return nil }),
		QueueSize: 1 << 16, BatchSize: 4096,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for qid := uint64(1); qid <= 2; qid++ {
		if err := a.Start(transport.HostQuery{
			QueryID: qid, EventType: "bid",
			Pred: expr.Binary{Op: expr.OpGt,
				L: expr.FieldRef{Type: "bid", Name: "bid_price"},
				R: expr.Lit{Val: event.Float(0.5)}},
			Columns: []string{"user_id", "city"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ev := bidEvent(1, 42, "sf", 1.0, time.Now().UnixNano())
	a.Log(ev) // allocate and size the first chunks
	if allocs := testing.AllocsPerRun(1000, func() { a.Log(ev) }); allocs != 0 {
		t.Errorf("two-query Log allocates %.1f/op, want 0", allocs)
	}
}

func TestLogRecordingAmortizedAllocs(t *testing.T) {
	// With the record stream attached, Log additionally appends the
	// encoded event into the active chunk. That append is amortized — the
	// scratch buffer grows geometrically and seals copy in bulk — so the
	// per-event average must stay well under one allocation.
	rs, err := replay.Open(replay.Options{Catalog: testCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	a, err := New(Config{
		HostID: "h", Service: "s", Catalog: testCatalog(),
		Sink:          SinkFunc(func(transport.TupleBatch) error { return nil }),
		FlushInterval: time.Hour,
		Record:        rs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ev := bidEvent(1, 42, "sf", 1.0, time.Now().UnixNano())
	for i := 0; i < 2000; i++ {
		a.Log(ev) // warm the encode scratch past its growth phase
	}
	if allocs := testing.AllocsPerRun(1000, func() { a.Log(ev) }); allocs >= 1 {
		t.Errorf("recording Log allocates %.2f/op, want amortized < 1", allocs)
	}
}

func TestHeartbeatRearmsOnSinkError(t *testing.T) {
	// A counter bump whose send fails must stay dirty and go out with the
	// next successful flush — not wait for the next tuple.
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) { c.FlushInterval = time.Hour })
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", SampleEvents: 0.0000001,
	}); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	sink.fail.Store(true)
	for i := 0; i < 10; i++ {
		a.Log(bidEvent(uint64(i), 1, "x", 1, now))
	}
	a.Flush() // heartbeat attempted, sink down
	if st := a.Stats(); st.SinkErrors == 0 {
		t.Fatal("failed send not counted")
	}
	if len(sink.tuples()) != 0 {
		t.Fatal("sink recorded batches while failing")
	}
	sink.fail.Store(false)
	a.Flush() // re-armed dirty flag must resend without new events
	matched, _, _ := sink.lastCounters()
	if matched != 10 {
		t.Errorf("recovered heartbeat matched = %d, want 10", matched)
	}
}

func TestAccountingParity(t *testing.T) {
	// Agent-level stats and the counters ScrubCentral receives in batches
	// must agree — the P3 estimator consumes the batch side.
	sink := &collectSink{}
	a := newAgent(t, sink)
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", SampleEvents: 0.3,
		Columns: []string{"user_id"},
	}); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	const n = 5000
	for i := 0; i < n; i++ {
		a.Log(bidEvent(uint64(i), 1, "x", 1, now))
	}
	a.Flush()
	matched, sampled, drops := sink.lastCounters()
	st := a.Stats()
	if matched != st.Matched || matched != n {
		t.Errorf("matched: batch %d, agent %d, want %d", matched, st.Matched, n)
	}
	if drops != st.QueueDrops || drops != 0 {
		t.Errorf("drops: batch %d, agent %d, want 0", drops, st.QueueDrops)
	}
	if got := uint64(len(sink.tuples())); got != sampled || got != st.Shipped {
		t.Errorf("tuples: sink %d, batch sampled %d, agent shipped %d", got, sampled, st.Shipped)
	}
}

func TestAccountingIdentityWithFailingSink(t *testing.T) {
	// A sink that rejects batches without ErrUndelivered (coord.Router)
	// loses their tuples; they must still be counted somewhere, or
	// matched = sampled out + shipped + counted drops stops closing the
	// moment a sink fails.
	sink := &collectSink{}
	a := newAgent(t, sink)
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", SampleEvents: 0.3,
		Columns: []string{"user_id"},
	}); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	const n = 6000
	for i := 0; i < n; i++ {
		if i%1000 == 0 { // down for every other thousand events
			a.Flush()
			sink.fail.Store(i/1000%2 == 1)
		}
		a.Log(bidEvent(uint64(i), 1, "x", 1, now))
	}
	a.Flush()
	sink.fail.Store(false)
	a.Flush() // the last counters go out
	matched, sampled, drops := sink.lastCounters()
	st := a.Stats()
	if st.SinkErrors == 0 || st.SinkErrorTuples == 0 {
		t.Fatalf("the sink never failed with tuples in hand: %+v", st)
	}
	if got := uint64(len(sink.tuples())); got != st.Shipped {
		t.Errorf("the sink holds %d tuples, the agent shipped %d", got, st.Shipped)
	}
	if matched != n || drops != st.QueueDrops {
		t.Errorf("matched %d (want %d), drops: batch %d, agent %d", matched, n, drops, st.QueueDrops)
	}
	if sum := st.Shipped + st.QueueDrops + st.SinkErrorTuples; sum != sampled {
		t.Errorf("shipped %d + queue drops %d + sink-error tuples %d = %d, want the %d sampled of %d matched",
			st.Shipped, st.QueueDrops, st.SinkErrorTuples, sum, sampled, matched)
	}
}

func TestConcurrentLogStartStopPruneFlush(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink)
	now := time.Now().UnixNano()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					a.Log(bidEvent(uint64(i), int64(w), "x", 1, now))
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.PruneExpired(time.Now())
				a.Flush()
			}
		}
	}()
	for i := 0; i < 40; i++ {
		qid := uint64(300 + i)
		hq := transport.HostQuery{QueryID: qid, EventType: "bid", Columns: []string{"city"}}
		if i%2 == 1 {
			// Expires almost immediately, so PruneExpired races Stop.
			hq.EndNanos = time.Now().Add(500 * time.Microsecond).UnixNano()
		}
		if err := a.Start(hq); err != nil {
			t.Error(err)
		}
		time.Sleep(time.Millisecond)
		a.Stop(qid)
	}
	close(stop)
	wg.Wait()
}
