package central

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/obs"
	"scrub/internal/transport"
	"scrub/internal/window"
)

// fakeShard is a ShardClient over a real driven Engine with the failures
// of a remote shard injected, so the merger's degrade paths run without
// sockets. It logs the order shards are collected in.
type fakeShard struct {
	directShard
	idx   int
	order *[]int

	down bool
	// fail makes Collect and Stop return this error and nothing else: an
	// RPC that died, or a shard that rejected a deposed caller as stale.
	fail error
	// lose makes Collect and Stop deliver their windows minus the first,
	// with an error alongside: one partial did not decode.
	lose bool
	// startGate, when set, parks Start until the test answers it.
	startGate chan error
	starting  chan struct{}
}

func (f *fakeShard) Down() bool { return f.down }

func (f *fakeShard) Start(qr *QueryRuntime) error {
	if f.startGate != nil {
		close(f.starting)
		if err := <-f.startGate; err != nil {
			return err
		}
	}
	return f.directShard.Start(qr)
}

func (f *fakeShard) Collect(qr *QueryRuntime, bound int64) ([]window.Closed[PartialWindow], error) {
	*f.order = append(*f.order, f.idx)
	windows, _ := f.directShard.Collect(qr, bound)
	return f.inject(windows)
}

func (f *fakeShard) Stop(qr *QueryRuntime) ([]window.Closed[PartialWindow], error) {
	windows, _ := f.directShard.Stop(qr)
	return f.inject(windows)
}

func (f *fakeShard) inject(windows []window.Closed[PartialWindow]) ([]window.Closed[PartialWindow], error) {
	if f.fail != nil {
		return nil, f.fail
	}
	if f.lose && len(windows) > 0 {
		// Closed windows arrive in no particular order; lose the earliest.
		first := 0
		for i, w := range windows {
			if w.Start < windows[first].Start {
				first = i
			}
		}
		return append(windows[:first], windows[first+1:]...), errors.New("partial does not decode")
	}
	return windows, nil
}

// mergerRig is a Merger over n fake shards running one count(*) query
// with 10s windows and 1s lateness on a virtual lease clock.
type mergerRig struct {
	m      *Merger
	shards []*fakeShard
	order  []int
	col    *collector
	vc     *virtualClock
}

func newMergerRig(t *testing.T, n int, p Plan) *mergerRig {
	t.Helper()
	r := &mergerRig{col: &collector{}, vc: &virtualClock{}}
	r.vc.set(1000 * time.Second)
	r.m = NewMerger(Options{LeaseTTL: 2 * time.Second, Clock: r.vc.now})
	for i := 0; i < n; i++ {
		r.shards = append(r.shards, &fakeShard{directShard: directShard{NewEngine()}, idx: i, order: &r.order})
	}
	qr, err := CompileQuery(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.Start(qr, r.col.emit, r.clients(), Install{}); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *mergerRig) clients() []ShardClient {
	out := make([]ShardClient, len(r.shards))
	for i, s := range r.shards {
		out[i] = s
	}
	return out
}

func countPlan(t *testing.T) Plan {
	t.Helper()
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	p.Lateness = time.Second
	return p
}

// ingest sends one tuple per (rid, ts-in-seconds) pair from host h1.
func (r *mergerRig) ingest(pairs ...int64) {
	var tuples []transport.Tuple
	for i := 0; i < len(pairs); i += 2 {
		tuples = append(tuples, tup(uint64(pairs[i]), sec(pairs[i+1])))
	}
	r.m.Ingest(bidBatch(1, "h1", tuples...))
}

func counts(wins []transport.ResultWindow) []string {
	var out []string
	for _, w := range wins {
		out = append(out, w.Rows[0][0].String())
	}
	return out
}

// TestMergerShardFailuresDegrade: whatever way a shard is lost, the query
// latches Degraded and its windows keep closing from what is left.
func TestMergerShardFailuresDegrade(t *testing.T) {
	cases := []struct {
		name  string
		fault func(*fakeShard)
		want  []string // counts of [0,10s), [10s,20s), [30s,40s)
	}{
		{"collect error", func(f *fakeShard) { f.fail = errors.New("connection reset") }, []string{"3", "3", "1"}},
		{"stale", func(f *fakeShard) { f.fail = errors.New("stale fencing epoch (deposed)") }, []string{"3", "3", "1"}},
		// The lost partial is [0,10s); shard 1's [10s,20s) still merges.
		{"undecodable partial", func(f *fakeShard) { f.lose = true }, []string{"3", "6", "1"}},
		{"down", func(f *fakeShard) { f.down = true }, []string{"3", "3", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := countPlan(t)
			p.Lateness = 10 * time.Second // one barrier closes two windows
			r := newMergerRig(t, 2, p)
			// Three tuples per shard in each of [0,10s) and [10s,20s).
			r.ingest(0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6)
			r.ingest(10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16)
			if got := r.col.all(); len(got) != 0 {
				t.Fatalf("%d windows closed before the watermark passed them", len(got))
			}
			tc.fault(r.shards[1])
			r.ingest(20, 32) // shard 0; watermark 32s closes both windows
			r.shards[1].lose = false
			r.ingest(22, 52) // closes [30s,40s): the latch must hold
			wins := r.col.all()
			if got := counts(wins); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("window counts = %v, want %v", got, tc.want)
			}
			for _, w := range wins {
				if !w.Degraded {
					t.Errorf("window [%d,%d) not flagged Degraded", w.WindowStart, w.WindowEnd)
				}
			}
			stats, ok := r.m.Stop(1, nil)
			if !ok || stats.DegradedWindows != stats.Windows || stats.Windows != uint64(len(r.col.all())) {
				t.Errorf("final stats = %+v over %d emitted windows", stats, len(r.col.all()))
			}
		})
	}
}

// TestMergerStopFoldsDeadShardDropsOnce: a shard that died before the
// stop contributes the drops its acks reported — once, charged to their
// stream, in the final stats and on the windows the stop flushes alike.
func TestMergerStopFoldsDeadShardDropsOnce(t *testing.T) {
	r := newMergerRig(t, 2, countPlan(t))
	r.ingest(0, 1, 1, 2)
	r.ingest(2, 12) // closes [0,10s) on both shards
	r.ingest(4, 3)  // late on shard 0
	r.ingest(5, 4)  // late on shard 1
	r.shards[1].down = true
	stats, ok := r.m.Stop(1, nil)
	if !ok {
		t.Fatal("Stop missed")
	}
	if stats.LateDrops != 2 {
		t.Errorf("final LateDrops = %d, want 2 (one per shard, the dead one's from its last report)", stats.LateDrops)
	}
	wins := r.col.all()
	last := wins[len(wins)-1]
	if last.WindowStart != sec(10) || last.Stats.LateDrops != 2 || !last.Degraded {
		t.Errorf("window flushed by the stop: start %ds, LateDrops %d, degraded %v; want 10s, 2, true",
			last.WindowStart/sec(1), last.Stats.LateDrops, last.Degraded)
	}
	if got := streamFor(t, last, "h1").LateDrops; got != 2 {
		t.Errorf("stream late drops = %d, want 2", got)
	}
}

// TestMergerBarrierOrder: every close collects the shards in ascending
// index (merge order decides float rounding, so it must be fixed).
func TestMergerBarrierOrder(t *testing.T) {
	r := newMergerRig(t, 3, countPlan(t))
	r.ingest(0, 1, 1, 2, 2, 3)
	r.order = nil
	r.ingest(3, 12)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(r.order, want) {
		t.Errorf("collect order = %v, want %v", r.order, want)
	}
	if got := counts(r.col.all()); !reflect.DeepEqual(got, []string{"3"}) {
		t.Errorf("window counts = %v, want [3]", got)
	}
}

// TestMergerBarrierOncePerSlide: a collect barrier is a round trip to
// every shard under the merger's lock, so it runs when the close bound
// crosses a slide boundary — only then can a window have become closable —
// and not once per manifest and tick.
func TestMergerBarrierOncePerSlide(t *testing.T) {
	r := newMergerRig(t, 3, countPlan(t)) // 10s windows, 1s lateness
	r.ingest(0, 1, 1, 2, 2, 3)            // bound 2s: the first barrier
	r.order = nil
	// Manifests whose bound stays inside the slide the last barrier
	// covered: no shard is asked.
	for ts := int64(4); ts <= 10; ts++ {
		r.ingest(ts, ts)
	}
	if len(r.order) != 0 {
		t.Fatalf("%d collects for manifests inside one slide, want 0", len(r.order))
	}
	if got := r.col.all(); len(got) != 0 {
		t.Fatalf("%d windows closed before the bound reached their end", len(got))
	}
	// The one that takes the bound across 10s: exactly one collect a shard,
	// in shard order, and the window closes with every tuple.
	r.ingest(20, 11)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(r.order, want) {
		t.Fatalf("collects at the crossing = %v, want %v", r.order, want)
	}
	if got := counts(r.col.all()); !reflect.DeepEqual(got, []string{"9"}) {
		t.Fatalf("window counts = %v, want [9]", got)
	}
	// A tick whose wall-clock bound lies below the last barrier asks nobody.
	r.order = nil
	r.m.Tick(sec(9))
	r.m.Tick(sec(11) + sec(1)/2) // bound 10.5s: the slide already covered
	if len(r.order) != 0 {
		t.Fatalf("%d collects for ticks at or below the last barrier, want 0", len(r.order))
	}
	// A shard that fenced this merger out in the meantime is found out at
	// the next crossing, and the window that closes there says so.
	r.shards[1].fail = errors.New("stale fencing epoch (deposed)")
	r.ingest(21, 15)
	if len(r.order) != 0 {
		t.Fatalf("%d collects inside the slide, want 0", len(r.order))
	}
	r.ingest(23, 21) // bound 20s
	if want := []int{0, 1, 2}; !reflect.DeepEqual(r.order, want) {
		t.Fatalf("collects at the second crossing = %v, want %v", r.order, want)
	}
	wins := r.col.all()
	if len(wins) != 2 || !wins[1].Degraded || wins[0].Degraded {
		t.Fatalf("windows = %d, degraded flags %v; want the second one Degraded", len(wins), []bool{wins[0].Degraded, wins[len(wins)-1].Degraded})
	}
}

// TestReplayHoldMerger: the merger holds and releases like the engine,
// fed the way a host-side router feeds it — sub-batches applied to the
// shards first, then the manifest.
func TestReplayHoldMerger(t *testing.T) {
	route := func(r *mergerRig, b transport.TupleBatch) {
		r.m.Observe(RouteToShards(b, r.clients(), new(RouteScratch)))
	}
	start := func(t *testing.T) *mergerRig {
		r := newMergerRig(t, 2, replayPlan(t))
		// Live tuples far past the start: watermark 125s would normally
		// close every window ending ≤ 123s.
		route(r, bidBatch(1, "h1", tup(1, sec(105)), tup(2, sec(125))))
		r.m.Tick(sec(1001))
		if got := r.col.all(); len(got) != 0 {
			t.Fatalf("hold violated: %d windows closed early", len(got))
		}
		return r
	}
	t.Run("settling manifest", func(t *testing.T) {
		r := start(t)
		route(r, epochBatch("h1", false, tup(3, sec(80)), tup(4, sec(95))))
		if got := r.col.all(); len(got) != 0 {
			t.Fatalf("epoch batch closed %d windows before the done marker", len(got))
		}
		// The tuple-free done marker must itself trigger the deferred close.
		route(r, epochBatch("h1", true))
		byStart := winStarts(r.col.all())
		for _, s := range []int64{sec(80), sec(90), sec(100)} {
			if w, ok := byStart[s]; !ok || w.Rows[0][0].String() != "1" {
				t.Errorf("window @%ds = %+v (emitted %v), want count 1", s/sec(1), w.Rows, ok)
			}
		}
	})
	t.Run("deadline", func(t *testing.T) {
		r := start(t)
		// Deadline is start + 2×TTL = 1004s on the lease clock.
		r.vc.set(1005 * time.Second)
		r.m.Tick(sec(1005))
		if got := r.col.all(); len(got) == 0 {
			t.Fatal("deadline passed but the hold never released")
		}
	})
}

// TestMergerTwoPhaseInstall plays a shard by hand: while Start is parked
// on shard 1's answer — shard 0 already runs the query — the entry must
// be invisible. A batch racing the install may not land on shard 0 and
// vanish on shard 1, a manifest may not fold stream state the rollback
// then deletes, and Stop/Stats must not see the query.
func TestMergerTwoPhaseInstall(t *testing.T) {
	m := NewMerger(Options{})
	var order []int
	s0 := &fakeShard{directShard: directShard{NewEngine()}, idx: 0, order: &order}
	s1 := &fakeShard{directShard: directShard{NewEngine()}, idx: 1, order: &order,
		startGate: make(chan error), starting: make(chan struct{})}
	qr, err := CompileQuery(countPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	col := &collector{}
	startErr := make(chan error, 1)
	go func() { startErr <- m.Start(qr, col.emit, []ShardClient{s0, s1}, Install{}) }()
	<-s1.starting

	if m.Ingest(bidBatch(1, "h1", tup(0, sec(1)), tup(1, sec(2)))) {
		t.Error("Ingest absorbed a batch for a query whose install has not finished")
	}
	if n, _ := s0.TuplesIn(1); n != 0 {
		t.Errorf("shard 0 absorbed %d tuples of a half-installed query", n)
	}
	if m.Observe(transport.BatchManifest{TupleBatch: transport.TupleBatch{QueryID: 1, HostID: "h1"}, RawTuples: 1, HasTs: true, MaxTs: sec(50)}) {
		t.Error("Observe folded a manifest into a query whose install has not finished")
	}
	if _, ok := m.Stats(1); ok {
		t.Error("Stats sees a query whose install has not finished")
	}
	if _, ok := m.Stop(1, nil); ok {
		t.Error("Stop stopped a query whose install has not finished")
	}

	s1.startGate <- errors.New("no capacity")
	if err := <-startErr; err == nil {
		t.Fatal("Start succeeded despite shard refusal")
	}
	if qs := s0.eng.DrivenQueries(); len(qs) != 0 {
		t.Errorf("shard 0 still runs %v after rollback", qs)
	}
	// The id is free again.
	s1.startGate = nil
	if err := m.Start(qr, col.emit, []ShardClient{s0, s1}, Install{}); err != nil {
		t.Fatalf("restart after rollback: %v", err)
	}
	if !m.Ingest(bidBatch(1, "h1", tup(0, sec(1)))) {
		t.Error("installed query did not absorb a batch")
	}
}

// TestQueryLateDropsSeries: scrub_central_query_late_drops_total{query} is
// the sum of the manifests' LateDelta — each batch's window-late drops
// across its shards, so an on-time batch adds nothing — and goes away
// with the query.
func TestQueryLateDropsSeries(t *testing.T) {
	reg := obs.NewRegistry()
	se, err := NewShardedEngineWith(2, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := se.StartQuery(countPlan(t), (&collector{}).emit); err != nil {
		t.Fatal(err)
	}
	late := func() float64 {
		for _, s := range reg.Snapshot() {
			if s.Name == "scrub_central_query_late_drops_total" && s.Labels == `query="1"` {
				return s.Value
			}
		}
		return -1
	}
	if got := late(); got != 0 {
		t.Fatalf("series at start = %v, want 0", got)
	}
	se.HandleBatch(bidBatch(1, "h1", tup(0, sec(1)), tup(1, sec(2))))
	se.HandleBatch(bidBatch(1, "h1", tup(2, sec(12)))) // closes [0,10s)
	// Late on shard 0 once and on shard 1 twice.
	se.HandleBatch(bidBatch(1, "h1", tup(4, sec(3)), tup(5, sec(4)), tup(7, sec(5))))
	se.HandleBatch(bidBatch(1, "h2", tup(9, sec(13)))) // on-time: adds nothing
	if got := late(); got != 3 {
		t.Fatalf("series = %v, want 3", got)
	}
	if stats, _ := se.StopQuery(1); stats.LateDrops != 3 {
		t.Errorf("final LateDrops = %d, want 3", stats.LateDrops)
	}
	if got := late(); got != -1 {
		t.Errorf("series still registered after Stop (value %v)", got)
	}
}

// TestShardDropsChargedPerStream: what a kernel drops of a stream's tuples
// — late, or past the join-pending and raw-row caps — reaches the merger
// on the manifest of the batch that caused it and is charged to that
// stream, whatever the shard count. The streams' ShardDrops is every
// kernel's own count, and the query's final LateDrops adds to it only the
// raw rows merging the shards' partials truncated.
func TestShardDropsChargedPerStream(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%d shards", n), func(t *testing.T) {
			p := buildPlan(t, `select exclusion.reason from bid, exclusion window 10s`, 1, 2, 2)
			p.Lateness = time.Second
			p.maxJoinPending = 6
			p.maxRawRows = 4
			se, err := NewShardedEngine(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := se.StartQuery(p, (&collector{}).emit); err != nil {
				t.Fatal(err)
			}
			bids := func(ts int64, rids ...uint64) {
				b := transport.TupleBatch{QueryID: 1, HostID: "bid-h", TypeIdx: 0}
				for _, rid := range rids {
					b.Tuples = append(b.Tuples, tup(rid, ts))
				}
				se.HandleBatch(b)
			}
			exclusions := func(ts int64, rids ...uint64) {
				b := transport.TupleBatch{QueryID: 1, HostID: "ex-h", TypeIdx: 1}
				for _, rid := range rids {
					b.Tuples = append(b.Tuples, tup(rid, ts, event.Str("budget")))
				}
				se.HandleBatch(b)
			}
			// Twelve requests, each joined twice, into [0,10s): both caps
			// overflow on every shard count.
			var rids []uint64
			for rid := uint64(0); rid < 12; rid++ {
				rids = append(rids, rid)
			}
			bids(sec(1), rids...)
			exclusions(sec(2), rids...)
			exclusions(sec(3), rids...)
			bids(sec(12), 20) // closes [0,10s)
			exclusions(sec(12), 20)
			bids(sec(4), 21, 22, 23) // late
			exclusions(sec(5), 24)   // late

			q := se.queries[1]
			var kernels uint64
			for _, sc := range se.shards {
				qs := sc.(directShard).eng.queries[1]
				kernels += qs.win.LateDrops() + qs.overflow
			}
			r := q.streams.Report(q.plan.SampleEvents)
			streams := r.ShardDrops
			var late uint64
			for _, st := range r.Streams {
				late += st.LateDrops
			}
			if late != 4 || streams <= late {
				t.Errorf("streams charged %d late drops and %d in all, want 4 late and some overflow", late, streams)
			}
			if streams != kernels {
				t.Errorf("streams charged %d shard drops, the kernels counted %d", streams, kernels)
			}
			merged := q.mergeDrops
			if n == 1 && merged != 0 {
				t.Errorf("one shard: %d rows truncated at merge", merged)
			}
			stats, ok := se.StopQuery(1)
			if !ok || stats.LateDrops != streams+merged {
				t.Errorf("final LateDrops = %d (ok %v), want the streams' %d + the merge's %d", stats.LateDrops, ok, streams, merged)
			}
		})
	}
}
