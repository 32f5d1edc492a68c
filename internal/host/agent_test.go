package host

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/governor"
	"scrub/internal/replay"
	"scrub/internal/transport"
)

var bidSchema = event.MustSchema("bid",
	event.FieldDef{Name: "user_id", Kind: event.KindInt},
	event.FieldDef{Name: "city", Kind: event.KindString},
	event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
)

func testCatalog() *event.Catalog {
	c := event.NewCatalog()
	c.MustRegister(bidSchema)
	return c
}

// collectSink gathers batches thread-safely. fail makes it lose what it
// is sent; down makes it report every batch undelivered.
type collectSink struct {
	mu      sync.Mutex
	batches []transport.TupleBatch
	fail    atomic.Bool
	down    atomic.Bool
}

func (s *collectSink) SendBatch(b transport.TupleBatch) error {
	if s.fail.Load() {
		return fmt.Errorf("sink down")
	}
	if s.down.Load() {
		return fmt.Errorf("%w: central unreachable", ErrUndelivered)
	}
	// The agent recycles batch memory once SendBatch returns (see Sink),
	// so a retaining sink must deep-copy.
	cp := transport.CloneBatch(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = append(s.batches, cp)
	return nil
}

func (s *collectSink) tuples() []transport.Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []transport.Tuple
	for _, b := range s.batches {
		out = append(out, b.Tuples...)
	}
	return out
}

func (s *collectSink) all() []transport.TupleBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]transport.TupleBatch, len(s.batches))
	copy(out, s.batches)
	return out
}

func (s *collectSink) lastCounters() (matched, sampled, drops uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.batches) == 0 {
		return 0, 0, 0
	}
	last := s.batches[len(s.batches)-1]
	return last.MatchedTotal, last.SampledTotal, last.QueueDrops
}

func newAgent(t *testing.T, sink Sink, opts ...func(*Config)) *Agent {
	t.Helper()
	cfg := Config{
		HostID: "h1", Service: "BidServers", DC: "DC1",
		Catalog: testCatalog(), Sink: sink,
		FlushInterval: 5 * time.Millisecond,
	}
	for _, o := range opts {
		o(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

func bidEvent(req uint64, user int64, city string, price float64, ts int64) *event.Event {
	return event.NewBuilder(bidSchema).
		SetRequestID(req).SetTimeNanos(ts).
		Int("user_id", user).Str("city", city).Float("bid_price", price).
		MustBuild()
}

func TestConfigValidation(t *testing.T) {
	base := Config{HostID: "h", Service: "s", Catalog: testCatalog(), Sink: &collectSink{}}
	bad := []func(Config) Config{
		func(c Config) Config { c.HostID = ""; return c },
		func(c Config) Config { c.Service = ""; return c },
		func(c Config) Config { c.Catalog = nil; return c },
		func(c Config) Config { c.Sink = nil; return c },
	}
	for i, mut := range bad {
		if _, err := New(mut(base)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestLogNoQueriesIsCheap(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink)
	ev := bidEvent(1, 42, "sf", 1.0, time.Now().UnixNano())
	for i := 0; i < 1000; i++ {
		a.Log(ev)
	}
	a.Flush()
	if got := sink.tuples(); len(got) != 0 {
		t.Errorf("no queries but %d tuples shipped", len(got))
	}
	st := a.Stats()
	if st.Logged != 1000 || st.Matched != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSelectionProjectionShipping(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink)
	err := a.Start(transport.HostQuery{
		QueryID:   1,
		EventType: "bid",
		Pred: expr.Binary{Op: expr.OpGt,
			L: expr.FieldRef{Type: "bid", Name: "bid_price"},
			R: expr.Lit{Val: event.Float(1.0)}},
		Columns: []string{"user_id", "city"},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	a.Log(bidEvent(1, 42, "sf", 2.0, now)) // matches
	a.Log(bidEvent(2, 43, "la", 0.5, now)) // selection rejects
	a.Log(bidEvent(3, 44, "ny", 1.5, now)) // matches
	a.Flush()

	got := sink.tuples()
	if len(got) != 2 {
		t.Fatalf("shipped %d tuples, want 2", len(got))
	}
	if got[0].RequestID != 1 || got[1].RequestID != 3 {
		t.Errorf("request ids = %d, %d", got[0].RequestID, got[1].RequestID)
	}
	// Projection: exactly user_id, city — not bid_price.
	if len(got[0].Values) != 2 {
		t.Fatalf("projected %d values", len(got[0].Values))
	}
	if v, _ := got[0].Values[0].AsInt(); v != 42 {
		t.Errorf("user_id = %v", got[0].Values[0])
	}
	if v, _ := got[0].Values[1].AsStr(); v != "sf" {
		t.Errorf("city = %v", got[0].Values[1])
	}
	matched, sampled, drops := sink.lastCounters()
	if matched != 2 || sampled != 2 || drops != 0 {
		t.Errorf("counters = %d/%d/%d", matched, sampled, drops)
	}
}

func TestStartValidation(t *testing.T) {
	a := newAgent(t, &collectSink{})
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "ghost"}); err == nil {
		t.Error("unknown event type should fail")
	}
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"nope"}}); err == nil {
		t.Error("unknown column should fail")
	}
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid",
		Pred: expr.FieldRef{Type: "bid", Name: "user_id"}}); err == nil {
		t.Error("non-bool predicate should fail")
	}
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid",
		Pred: expr.FieldRef{Type: "bid", Name: "ghost"}}); err == nil {
		t.Error("predicate on unknown field should fail")
	}
	if err := a.Start(transport.HostQuery{QueryID: 2, EventType: "bid"}); err != nil {
		t.Fatalf("valid start: %v", err)
	}
	if err := a.Start(transport.HostQuery{QueryID: 2, EventType: "bid"}); err == nil {
		t.Error("duplicate query id should fail")
	}
}

// TestStartAfterCloseIsRefused: a closed agent installs no query and
// starts no replay scan, which nothing would wait for.
func TestStartAfterCloseIsRefused(t *testing.T) {
	rs, err := replay.Open(replay.Options{Catalog: testCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	a := newAgent(t, &collectSink{}, func(c *Config) { c.Record = rs })
	a.Close()
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", ReplayNanos: int64(time.Minute)}); err == nil {
		t.Error("Start of a REPLAY query on a closed agent succeeded")
	}
	if ids := a.ActiveQueries(); len(ids) != 0 {
		t.Errorf("a closed agent lists queries %v", ids)
	}
}

func TestStopIsIdempotent(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink)
	if err := a.Start(transport.HostQuery{QueryID: 5, EventType: "bid"}); err != nil {
		t.Fatal(err)
	}
	a.Stop(5)
	a.Stop(5)
	a.Stop(999)
	a.Log(bidEvent(1, 1, "x", 1, time.Now().UnixNano()))
	a.Flush()
	if len(sink.tuples()) != 0 {
		t.Error("stopped query still shipping")
	}
}

func TestSpanGating(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink)
	base := time.Now().UnixNano()
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid",
		StartNanos: base + 1000, EndNanos: base + 2000,
	}); err != nil {
		t.Fatal(err)
	}
	a.Log(bidEvent(1, 1, "x", 1, base+500))  // before span
	a.Log(bidEvent(2, 1, "x", 1, base+1500)) // inside
	a.Log(bidEvent(3, 1, "x", 1, base+2000)) // at end (exclusive)
	a.Flush()
	got := sink.tuples()
	if len(got) != 1 || got[0].RequestID != 2 {
		t.Errorf("span gating shipped %v", got)
	}
}

// A zero StartNanos leaves the span open before it, pre-1970 event times
// included: for one unfiltered query, for two queries on the type, and for
// a span bounded only at its end.
func TestOpenStartAdmitsNegativeTimes(t *testing.T) {
	for _, hqs := range [][]transport.HostQuery{
		{{QueryID: 1, EventType: "bid"}},
		{{QueryID: 1, EventType: "bid"}, {QueryID: 2, EventType: "bid", Columns: []string{"city"}}},
		{{QueryID: 1, EventType: "bid", EndNanos: 1000}},
	} {
		sink := &collectSink{}
		a := newAgent(t, sink)
		for _, hq := range hqs {
			if err := a.Start(hq); err != nil {
				t.Fatal(err)
			}
		}
		a.Log(bidEvent(1, 1, "x", 1, -500))
		a.Flush()
		if got := sink.tuples(); len(got) != len(hqs) {
			t.Errorf("%d queries shipped %v for an event at -500ns", len(hqs), got)
		}
	}
}

func TestPruneExpired(t *testing.T) {
	a := newAgent(t, &collectSink{})
	now := time.Now()
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", EndNanos: now.Add(-time.Second).UnixNano()}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(transport.HostQuery{QueryID: 2, EventType: "bid", EndNanos: now.Add(time.Hour).UnixNano()}); err != nil {
		t.Fatal(err)
	}
	if n := a.PruneExpired(now); n != 1 {
		t.Errorf("pruned %d, want 1", n)
	}
	ids := a.ActiveQueries()
	if len(ids) != 1 || ids[0] != 2 {
		t.Errorf("active = %v", ids)
	}
}

func TestQueueOverflowDropsNotBlocks(t *testing.T) {
	// A wedged ScrubCentral: the first batch send blocks forever. The
	// shipper gets stuck mid-flush, the queue fills, and every further
	// Log must drop instead of blocking the application thread.
	release := make(chan struct{})
	var once sync.Once
	blockingSink := SinkFunc(func(transport.TupleBatch) error {
		<-release
		return nil
	})
	cfg := Config{
		HostID: "h1", Service: "BidServers", Catalog: testCatalog(),
		Sink: blockingSink, QueueSize: 10, BatchSize: 64,
		FlushInterval: time.Hour,
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		once.Do(func() { close(release) })
		a.Close()
	})
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid"}); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	start := time.Now()
	const n = 10000
	for i := 0; i < n; i++ {
		a.Log(bidEvent(uint64(i), 1, "x", 1, now))
	}
	elapsed := time.Since(start)
	// 10k events against a wedged pipeline must complete quickly.
	if elapsed > 2*time.Second {
		t.Errorf("Log blocked: 10k events took %v", elapsed)
	}
	st := a.Stats()
	if st.QueueDrops == 0 {
		t.Error("expected queue drops")
	}
	// Drops happen at chunk granularity: non-dropped events are bounded by
	// the chunk wedged in the sink, the chunks buffered in the shipping
	// queue, and one partial chunk still filling (≤ 5 chunks total).
	if st.QueueDrops < n-5*64 {
		t.Errorf("drops = %d, want ≥ %d", st.QueueDrops, n-5*64)
	}
	once.Do(func() { close(release) })
}

func TestEventSamplingCountsBothTotals(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink)
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", SampleEvents: 0.2,
	}); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	const n = 20000
	for i := 0; i < n; i++ {
		a.Log(bidEvent(uint64(i), 1, "x", 1, now))
	}
	a.Flush()
	matched, sampled, _ := sink.lastCounters()
	if matched != n {
		t.Errorf("matched = %d, want %d", matched, n)
	}
	rate := float64(sampled) / n
	if rate < 0.17 || rate > 0.23 {
		t.Errorf("sampled rate = %g, want ~0.2", rate)
	}
	shipped := len(sink.tuples())
	if uint64(shipped) != sampled {
		t.Errorf("shipped %d != sampled %d", shipped, sampled)
	}
}

// TestLogRacesRearm holds a lane's cur and step to lane.mu: Log's
// enqueue, the governor's re-arm and the shipper's flush each touch them
// only under it, so -race reports any access that is not. Four
// goroutines Log a sampled query while another re-arms its live lane
// through steps 0–3 and queues each chunk the re-arm cuts, the lane half
// of applyRate (whose step and announce fields are the shipper's own).
// Every kept tuple ships exactly once.
func TestLogRacesRearm(t *testing.T) {
	const loggers, perLogger = 4, 5000
	sink := &collectSink{}
	// A queue slot per event: each chunk a re-arm cuts holds at least
	// one tuple, so none is dropped.
	a := newAgent(t, sink, func(c *Config) { c.BatchSize, c.QueueSize = 256, loggers*perLogger*256 })
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id"},
		SampleEvents: 0.5}); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	ln := &a.queries[queryKey{id: 1}].live
	a.mu.Unlock()

	now := time.Now().UnixNano()
	var wg sync.WaitGroup
	for w := range loggers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perLogger {
				a.Log(bidEvent(uint64(w*perLogger+i), int64(w), "sf", 1, now))
			}
		}()
	}
	stop := make(chan struct{})
	rearms := make(chan int)
	go func() {
		n := 0
		for step := uint8(0); ; step = (step + 1) % 4 {
			select {
			case <-stop:
				rearms <- n
				return
			default:
			}
			if c := ln.arm(step); c != nil {
				a.submit(c)
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-rearms; n == 0 {
		t.Fatal("the lane was never re-armed while Log ran")
	}
	a.Flush()

	matched, sampled, _ := sink.lastCounters()
	if matched != loggers*perLogger {
		t.Errorf("matched = %d, want %d", matched, loggers*perLogger)
	}
	if sampled == 0 {
		t.Fatal("no event was kept")
	}
	if drops := a.Stats().QueueDrops; drops != 0 {
		t.Errorf("%d tuples dropped from the queue", drops)
	}
	checkSampledIdentity(t, sink)
}

func TestCounterOnlyHeartbeat(t *testing.T) {
	// With sampling dropping everything, counters still reach the sink.
	sink := &collectSink{}
	a := newAgent(t, sink)
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", SampleEvents: 0.0000001,
	}); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	for i := 0; i < 100; i++ {
		a.Log(bidEvent(uint64(i), 1, "x", 1, now))
	}
	a.Flush()
	matched, _, _ := sink.lastCounters()
	if matched != 100 {
		t.Errorf("heartbeat matched = %d, want 100", matched)
	}
}

func TestMultipleQueriesIndependent(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink)
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid",
		Pred: expr.Binary{Op: expr.OpEq,
			L: expr.FieldRef{Type: "bid", Name: "city"}, R: expr.Lit{Val: event.Str("sf")}},
		Columns: []string{"user_id"}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(transport.HostQuery{QueryID: 2, EventType: "bid", Columns: []string{"city"}}); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	a.Log(bidEvent(1, 7, "sf", 1, now))
	a.Log(bidEvent(2, 8, "la", 1, now))
	a.Flush()

	perQuery := map[uint64]int{}
	sink.mu.Lock()
	for _, b := range sink.batches {
		perQuery[b.QueryID] += len(b.Tuples)
	}
	sink.mu.Unlock()
	if perQuery[1] != 1 || perQuery[2] != 2 {
		t.Errorf("per-query tuples = %v", perQuery)
	}
}

func TestConcurrentLogAndStartStop(t *testing.T) {
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
	for i := 0; i < 50; i++ {
		qid := uint64(100 + i)
		if err := a.Start(transport.HostQuery{QueryID: qid, EventType: "bid"}); err != nil {
			t.Error(err)
		}
		time.Sleep(time.Millisecond)
		a.Stop(qid)
	}
	close(stop)
	wg.Wait()
}

func TestCloseFlushesPending(t *testing.T) {
	sink := &collectSink{}
	cfg := Config{
		HostID: "h1", Service: "S", Catalog: testCatalog(), Sink: sink,
		FlushInterval: time.Hour, // only Close can flush
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid"}); err != nil {
		t.Fatal(err)
	}
	a.Log(bidEvent(1, 1, "x", 1, time.Now().UnixNano()))
	a.Close()
	if len(sink.tuples()) != 1 {
		t.Errorf("Close lost pending tuples: %d", len(sink.tuples()))
	}
	a.Close() // idempotent
}

func BenchmarkLogNoQueries(b *testing.B) {
	a, err := New(Config{HostID: "h", Service: "s", Catalog: testCatalog(), Sink: &collectSink{}})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	ev := bidEvent(1, 42, "sf", 1.0, time.Now().UnixNano())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Log(ev)
	}
}

func BenchmarkLogOneMatchingQuery(b *testing.B) {
	a, err := New(Config{HostID: "h", Service: "s", Catalog: testCatalog(),
		Sink:      SinkFunc(func(transport.TupleBatch) error { return nil }),
		QueueSize: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid",
		Pred: expr.Binary{Op: expr.OpGt,
			L: expr.FieldRef{Type: "bid", Name: "bid_price"}, R: expr.Lit{Val: event.Float(0.5)}},
		Columns: []string{"user_id"},
	}); err != nil {
		b.Fatal(err)
	}
	ev := bidEvent(1, 42, "sf", 1.0, time.Now().UnixNano())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Log(ev)
	}
}

// downsample has query id's governor halve its live rate, as the shipper
// would on a budget overrun.
func downsample(t *testing.T, a *Agent, id uint64) {
	t.Helper()
	a.mu.Lock()
	aq := a.queries[queryKey{id: id}]
	a.mu.Unlock()
	if act := aq.tracker.Evaluate(governor.Usage{CPUNs: 1 << 30, ElapsedNs: 1 << 30}, governor.Budget{CPUPct: 0.5}); act != governor.ActionDownsample {
		t.Fatalf("tracker action %v, want a downsample", act)
	}
	a.applyRate(aq)
}

// TestBatchCarriesItsChunksRate: a batch reports the rate its tuples were
// sampled at. A rate change cuts the live chunk, so tuples kept before it
// ship under the old rate; a replayed chunk was sampled at the base rate,
// whatever the governor has done to the live lane since.
func TestBatchCarriesItsChunksRate(t *testing.T) {
	// The shipper runs only on Flush, so the test may drive the governor
	// between flushes as the shipper would.
	quiet := func(c *Config) { c.FlushInterval = time.Hour }
	downsample := func(a *Agent, id uint64) { downsample(t, a, id) }
	rates := func(batches []transport.TupleBatch, replayed bool) (out []float64) {
		for _, b := range batches {
			if len(b.Tuples) > 0 && (b.ReplayEpoch != 0) == replayed {
				out = append(out, b.EffRate)
			}
		}
		return out
	}

	t.Run("live", func(t *testing.T) {
		sink := &collectSink{}
		a := newAgent(t, sink, quiet)
		if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id"}}); err != nil {
			t.Fatal(err)
		}
		now := time.Now().UnixNano()
		for i := range 4 {
			a.Log(bidEvent(uint64(i), 1, "sf", 1, now))
		}
		downsample(a, 1)
		for i := range 64 {
			a.Log(bidEvent(uint64(100+i), 1, "sf", 1, now))
		}
		a.Flush()
		got := rates(sink.all(), false)
		if len(got) != 2 || got[0] != 1 || got[1] != 0.5 {
			t.Fatalf("batch rates %v, want [1 0.5]", got)
		}
		if first := sink.all()[0]; len(first.Tuples) != 4 {
			t.Errorf("the chunk cut at the rate change holds %d tuples, want 4", len(first.Tuples))
		}
	})

	t.Run("replayed", func(t *testing.T) {
		sink := &collectSink{}
		rs, err := replay.Open(replay.Options{Catalog: testCatalog()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		a := newAgent(t, sink, quiet, func(c *Config) { c.Record = rs })
		now := time.Now().UnixNano()
		for i := range 40 {
			a.Log(bidEvent(uint64(i), 1, "sf", 1, now-int64(time.Second)))
		}
		// The replayed chunk is kept undelivered until after the governor
		// has halved the live rate.
		sink.down.Store(true)
		if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id"},
			SampleEvents: 0.5, ReplayNanos: int64(time.Minute)}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for a.Stats().SinkErrors == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the replayed chunk never reached the sink")
			}
			time.Sleep(time.Millisecond)
		}
		downsample(a, 1)
		sink.down.Store(false)
		a.Flush()
		got := rates(sink.all(), true)
		if len(got) == 0 {
			t.Fatal("no replayed tuples shipped")
		}
		for _, r := range got {
			if r != 0.5 {
				t.Errorf("replayed batch rate %v, want the base rate 0.5", r)
			}
		}
	})
}

// TestShedQueryHoldsNoShareOfTheHostCap: a query the governor shed stays
// in the agent to keep announcing BudgetShed, but the host cap is shared
// among the queries still running. Under a 1 000 B/s cap, two running
// queries shipping 450 B/s each and a shed one sending 150 B/s of
// heartbeats put the host over its cap; each running query's share is
// 500 B/s, not 333, so neither is downsampled.
func TestShedQueryHoldsNoShareOfTheHostCap(t *testing.T) {
	var now atomic.Int64
	a := &Agent{cfg: Config{
		Clock:    func() time.Time { return time.Unix(0, now.Load()) },
		Governor: governor.Config{HostBudget: governor.Budget{BytesPerSec: 1000}},
	}}
	newQuery := func() *activeQuery {
		aq := &activeQuery{baseRate: 1, tracker: governor.NewTracker()}
		aq.live.aq = aq
		aq.live.arm(0)
		return aq
	}
	live1, live2, shed := newQuery(), newQuery(), newQuery()
	shed.shed = true
	actives := []*activeQuery{live1, live2, shed}
	for tick := 0; tick < 5; tick++ {
		now.Add(int64(time.Second))
		live1.bytesShipped += 450
		live2.bytesShipped += 450
		shed.bytesShipped += 150
		a.governTick(actives)
	}
	if n := a.govDownsamples.Value(); n != 0 {
		t.Errorf("the governor downsampled %d times: a shed query kept a share of the host cap", n)
	}
	for i, aq := range actives[:2] {
		if m := aq.tracker.Mult(); m != 1 {
			t.Errorf("running query %d at rate multiplier %v, want 1", i, m)
		}
	}
}
