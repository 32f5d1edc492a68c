package host

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/replay"
	"scrub/internal/transport"
)

// newRecordingAgent wires an agent to a fresh in-memory record stream.
func newRecordingAgent(t *testing.T, sink Sink, opts ...func(*Config)) (*Agent, *replay.Store) {
	t.Helper()
	rs, err := replay.Open(replay.Options{Catalog: testCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	a := newAgent(t, sink, append(opts, func(c *Config) { c.Record = rs })...)
	return a, rs
}

// waitReplayDone polls the sink until a batch carrying the ReplayDone
// marker arrives, then returns everything shipped so far.
func waitReplayDone(t *testing.T, sink *collectSink) []transport.TupleBatch {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, b := range sink.all() {
			if b.ReplayDone {
				return sink.all()
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("replay done marker never shipped")
	return nil
}

// replayTuples extracts the historical tuples (nonzero epoch) in ship
// order.
func replayTuples(batches []transport.TupleBatch) []transport.Tuple {
	var out []transport.Tuple
	for _, b := range batches {
		if b.ReplayEpoch != 0 {
			out = append(out, b.Tuples...)
		}
	}
	return out
}

func TestReplayShipsRecordedHistory(t *testing.T) {
	sink := &collectSink{}
	a, _ := newRecordingAgent(t, sink)

	// History logged before any query exists: nothing ships live, but the
	// record stream keeps it.
	now := time.Now().UnixNano()
	a.Log(bidEvent(1, 42, "sf", 2.0, now-int64(3*time.Second)))
	a.Log(bidEvent(2, 43, "la", 0.5, now-int64(2*time.Second))) // predicate will reject
	a.Log(bidEvent(3, 44, "ny", 1.5, now-int64(time.Second)))
	a.Flush()
	if got := sink.tuples(); len(got) != 0 {
		t.Fatalf("no queries yet but %d tuples shipped", len(got))
	}

	err := a.Start(transport.HostQuery{
		QueryID:   1,
		EventType: "bid",
		Pred: expr.Binary{Op: expr.OpGt,
			L: expr.FieldRef{Type: "bid", Name: "bid_price"},
			R: expr.Lit{Val: event.Float(1.0)}},
		Columns:     []string{"user_id"},
		ReplayNanos: int64(time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}

	batches := waitReplayDone(t, sink)
	got := replayTuples(batches)
	if len(got) != 2 {
		t.Fatalf("replayed %d tuples, want 2: %+v", len(got), got)
	}
	if got[0].RequestID != 1 || got[1].RequestID != 3 {
		t.Errorf("request ids = %d, %d (want 1, 3 in record order)", got[0].RequestID, got[1].RequestID)
	}
	// Projection applies to history exactly as it does live.
	if len(got[0].Values) != 1 {
		t.Fatalf("projected %d values, want 1", len(got[0].Values))
	}
	if v, _ := got[0].Values[0].AsInt(); v != 42 {
		t.Errorf("user_id = %v", got[0].Values[0])
	}
	// Every historical batch carries the epoch; exactly one the marker.
	done := 0
	for _, b := range batches {
		if b.ReplayDone {
			done++
			if b.ReplayEpoch == 0 {
				t.Error("done marker must carry the replay epoch")
			}
		}
	}
	if done != 1 {
		t.Errorf("done markers = %d, want 1", done)
	}
	// Replayed matches fold into the cumulative counters central scales by.
	st := a.Stats()
	if st.Matched != 2 {
		t.Errorf("matched = %d, want 2", st.Matched)
	}
}

func TestReplayEmptyHistorySendsMarker(t *testing.T) {
	// A query whose replay span holds nothing still owes central the done
	// marker, or the replay hold would wait out its full deadline.
	sink := &collectSink{}
	a, _ := newRecordingAgent(t, sink)
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", ReplayNanos: int64(time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	batches := waitReplayDone(t, sink)
	if got := replayTuples(batches); len(got) != 0 {
		t.Errorf("empty history replayed %d tuples", len(got))
	}
}

func TestReplayWithoutStoreShipsNothing(t *testing.T) {
	// ReplayNanos on an agent that never recorded is a silent no-op:
	// central's hold deadline covers hosts with nothing to contribute.
	sink := &collectSink{}
	a := newAgent(t, sink)
	a.Log(bidEvent(1, 42, "sf", 2.0, time.Now().UnixNano()-int64(time.Second)))
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", ReplayNanos: int64(time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	time.Sleep(30 * time.Millisecond)
	for _, b := range sink.all() {
		if b.ReplayEpoch != 0 || b.ReplayDone {
			t.Fatalf("agent without a record stream shipped a replay batch: %+v", b)
		}
	}
}

func TestReplayStopAbortsScan(t *testing.T) {
	// Stopping a query mid-replay must not leave historical tuples of a
	// dead query in flight; the scan aborts and skips its marker.
	sink := &collectSink{}
	a, _ := newRecordingAgent(t, sink)
	now := time.Now().UnixNano()
	for i := uint64(1); i <= 100; i++ {
		a.Log(bidEvent(i, int64(i), "sf", 2.0, now-int64(time.Second)))
	}
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", Columns: []string{"user_id"},
		ReplayNanos: int64(time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	a.Stop(1)
	a.Flush()
	time.Sleep(30 * time.Millisecond)
	// Raciness is inherent (the scan may finish before Stop lands), so
	// only the invariant is checked: a stopped query's replay either ran
	// to completion with a marker, or aborted without shipping more.
	all := sink.all()
	n := len(replayTuples(all))
	if n > 100 {
		t.Errorf("replayed %d tuples from 100 recorded", n)
	}
}

func TestReplayMetricsCharged(t *testing.T) {
	sink := &collectSink{}
	a, _ := newRecordingAgent(t, sink)
	now := time.Now().UnixNano()
	a.Log(bidEvent(1, 42, "sf", 2.0, now-int64(time.Second)))
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", Columns: []string{"user_id"},
		ReplayNanos: int64(time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	waitReplayDone(t, sink)
	if n := a.replayShipped.Value(); n != 1 {
		t.Errorf("scrub_host_replay_shipped_total = %d, want 1", n)
	}
	if b := a.replayShipBytes.Value(); b == 0 {
		t.Error("scrub_host_replay_ship_bytes_total = 0, want > 0")
	}
}

func TestReplayIndexSelectsOwnQuery(t *testing.T) {
	// A replay scan's one-query index is a cut of the live program to its
	// own query's root: with every decoy predicate live beside it,
	// and its own predicate built from two of their subtrees, the scan
	// must ship exactly the recorded events its predicate selects.
	sink := &collectSink{}
	a, _ := newRecordingAgent(t, sink)
	now := time.Now().UnixNano()
	cities := []string{"sf", "nyc", "la", ""}
	var history []*event.Event
	for i := uint64(1); i <= 200; i++ {
		ev := bidEvent(i, int64(i%7), cities[i%4], float64(i%9)/4, now-int64(time.Second)+int64(i))
		history = append(history, ev)
		a.Log(ev)
	}
	decoys := decoyPreds()
	for i, p := range decoys {
		if err := a.Start(transport.HostQuery{QueryID: uint64(i + 1), EventType: "bid", Pred: p}); err != nil {
			t.Fatal(err)
		}
	}
	pred := expr.Binary{Op: expr.OpAnd, L: decoys[7], R: decoys[3]} // user_id % 4 = 1 and city != "sf"
	if err := a.Start(transport.HostQuery{
		QueryID: 99, EventType: "bid", Pred: pred, Columns: []string{"user_id"},
		ReplayNanos: int64(time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	checked, _, err := expr.Check(pred, expr.SchemaResolver{Schemas: []*event.Schema{bidSchema}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := expr.Compile(checked)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for _, ev := range history {
		if expr.Predicate(ref)(expr.EventRow{Event: ev}) {
			want = append(want, ev.RequestID)
		}
	}
	if len(want) == 0 || len(want) == len(history) {
		t.Fatalf("the predicate selects %d of %d recorded events: no test of selection", len(want), len(history))
	}
	var got []uint64
	for _, tu := range replayTuples(waitReplayDone(t, sink)) {
		got = append(got, tu.RequestID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("replayed request ids %v, want %v", got, want)
	}
}

// TestReplayImmediateStartShipsEachEventOnce: a REPLAY query with no
// StartNanos partitions history and live traffic at the instant Start
// reads the clock, on event time, as a query the server stamps does. An
// event logged after Start but stamped before the scan reads anything
// must ship once, live, not live and again replayed.
func TestReplayImmediateStartShipsEachEventOnce(t *testing.T) {
	t0 := time.Unix(0, 1_000_000_000_000)
	// Once armed, the clock reads t0 once, for Start; any later read, the
	// scan's included, waits until request 7 is logged and then reads a
	// second on.
	var armed atomic.Bool
	var calls atomic.Int32
	logged := make(chan struct{})
	clock := func() time.Time {
		if !armed.Load() || calls.Add(1) == 1 {
			return t0
		}
		<-logged
		return t0.Add(time.Second)
	}
	rs, err := replay.Open(replay.Options{Catalog: testCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) { c.Record, c.Clock, c.FlushInterval = rs, clock, time.Hour })
	armed.Store(true)
	a.Log(bidEvent(1, 1, "sf", 1, t0.Add(-time.Second).UnixNano()))
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", Columns: []string{"user_id"},
		ReplayNanos: int64(time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	a.Log(bidEvent(7, 7, "sf", 1, t0.Add(time.Millisecond).UnixNano()))
	close(logged)
	a.Log(bidEvent(8, 8, "sf", 1, t0.Add(2*time.Second).UnixNano()))
	waitReplayDone(t, sink)
	a.Flush()
	shipped := map[uint64]int{}
	for _, tu := range sink.tuples() {
		shipped[tu.RequestID]++
	}
	for _, id := range []uint64{1, 7, 8} {
		if shipped[id] != 1 {
			t.Errorf("request %d shipped %d times, want once (shipped %v)", id, shipped[id], shipped)
		}
	}
}

// replayLane builds query id's replay lane and one-query index as Start
// builds them for a REPLAY query (a lane of the scan's own at the base
// rate, over a cut of the live program) and runs n matching events
// through them.
func replayLane(t *testing.T, a *Agent, id uint64, n int) (*lane, *typeProgram) {
	t.Helper()
	a.mu.Lock()
	aq := a.queries[queryKey{id: id}]
	a.mu.Unlock()
	ln := &lane{aq: aq, epoch: 1}
	a.arm(ln, 0)
	b, subs := cut(a.byType.Load().byName[aq.schema.Name()], []subscriber{{ln: ln, pred: -1}})
	tp := buildTypeProgram(aq.schema, b.Build(), subs)
	now := time.Now().UnixNano()
	for i := range n {
		a.dispatch(tp, bidEvent(uint64(i+1), 1, "sf", 1, now-int64(time.Second)))
	}
	return ln, tp
}

// checkSampledIdentity holds the sink's last batch to the agent-boundary
// identity SampledTotal = shipped + QueueDrops: every tuple a lane kept
// was shipped or charged as a drop.
func checkSampledIdentity(t *testing.T, sink *collectSink) {
	t.Helper()
	_, sampled, drops := sink.lastCounters()
	if shipped := uint64(len(sink.tuples())); sampled != shipped+drops {
		t.Errorf("last batch: SampledTotal %d, want shipped %d + QueueDrops %d", sampled, shipped, drops)
	}
}

// TestReplayLaneCountsSampledAfterLiveStep: a replay lane counts the
// tuples it keeps in mᵢ whatever the governor has done to the live lane.
// A rate-1 query whose live lane was stepped down still ships its
// replayed tuples at the base rate, and its batches count them.
func TestReplayLaneCountsSampledAfterLiveStep(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) { c.FlushInterval = time.Hour })
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id"}}); err != nil {
		t.Fatal(err)
	}
	downsample(t, a, 1)
	ln, _ := replayLane(t, a, 1, 10)
	a.seal(ln)
	a.Flush()
	if n := len(sink.tuples()); n != 10 {
		t.Fatalf("shipped %d replayed tuples, want 10", n)
	}
	checkSampledIdentity(t, sink)
}

// TestDeadReplayChunkIsCharged: a replay scan whose query was stopped or
// shed gives up the chunk it was filling, and charges it as queue drops,
// so the query's last heartbeat still accounts for every tuple it kept.
func TestDeadReplayChunkIsCharged(t *testing.T) {
	sink := &collectSink{}
	a, _ := newRecordingAgent(t, sink, func(c *Config) { c.FlushInterval = time.Hour })
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id"}}); err != nil {
		t.Fatal(err)
	}
	ln, tp := replayLane(t, a, 1, 10)
	ln.aq.stopped.Store(true)
	a.wg.Add(1)
	a.replayShip(ln, tp)
	a.Flush()
	checkSampledIdentity(t, sink)
}

// TestCloseChargesLateReplayChunk: Close cuts a running replay scan, whose
// last chunk can reach the queue after the shipper's final flush. That
// chunk is charged as a queue drop, so once Close returns every tuple the
// agent matched at rate 1 was shipped or dropped.
func TestCloseChargesLateReplayChunk(t *testing.T) {
	now := time.Now().UnixNano()
	for trial := range 20 {
		sink := &collectSink{}
		a, _ := newRecordingAgent(t, sink)
		for i := range 20000 {
			a.Log(bidEvent(uint64(i), 1, "sf", 1, now-int64(time.Second)))
		}
		if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id"},
			ReplayNanos: int64(time.Minute)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(trial) * 100 * time.Microsecond)
		a.Close()
		if st := a.Stats(); st.Matched != st.Shipped+st.QueueDrops+st.SinkErrorTuples {
			t.Fatalf("trial %d: matched %d, shipped %d + queue drops %d + sink-error tuples %d",
				trial, st.Matched, st.Shipped, st.QueueDrops, st.SinkErrorTuples)
		}
	}
}
