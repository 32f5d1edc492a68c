package coord

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/obs"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

var testSchema = event.MustSchema("ev",
	event.FieldDef{Name: "v", Kind: event.KindFloat},
)

func testCatalog() *event.Catalog {
	c := event.NewCatalog()
	c.MustRegister(testSchema)
	return c
}

// vclock is a harness-controlled clock (single harness goroutine; reads
// from serve goroutines are ordered by the pipes' synchronous RPCs).
type vclock struct{ nanos int64 }

func (v *vclock) now() time.Time { return time.Unix(0, v.nanos) }

type collector struct{ wins []transport.ResultWindow }

func (c *collector) emit(rw transport.ResultWindow) { c.wins = append(c.wins, rw) }

// testShard is one fake shard process: a node plus the server ends of its
// connections, so tests can kill it.
type testShard struct {
	node  *ShardNode
	conns []*transport.Conn // server ends: coordinator's and router's
}

// kill closes the shard's connections: the next RPC to it fails, exactly
// like a died process.
func (s *testShard) kill() {
	for _, c := range s.conns {
		c.Close()
	}
}

type testTopo struct {
	coord  *Coordinator
	router *Router
	shards []*testShard
}

func newTestTopo(t *testing.T, n int, opts Options) *testTopo {
	t.Helper()
	tt := &testTopo{coord: NewCoordinator(opts)}
	tt.router = NewRouter(func(m transport.BatchManifest) error {
		tt.coord.HandleManifest(m)
		return nil
	}, nil)
	for i := 0; i < n; i++ {
		tt.addShard(t)
	}
	return tt
}

// addShard grows the fabric by one shard process (join).
func (tt *testTopo) addShard(t *testing.T) *testShard {
	t.Helper()
	s := &testShard{node: NewShardNode(testCatalog())}
	addr := fmt.Sprintf("shard-%d", len(tt.shards))
	cc, cs := transport.Pipe()
	go s.node.ServeConn(cs)
	tt.coord.AddShardConn(cc, addr)
	rc, rs := transport.Pipe()
	go s.node.ServeConn(rs)
	tt.router.AddShardConn(addr, rc)
	s.conns = []*transport.Conn{cs, rs}
	tt.shards = append(tt.shards, s)
	tt.router.HandleShardMap(tt.coord.ShardMap())
	return s
}

// addStandby attaches a warm standby over cat to the coordinator's
// replication stream; it dials the topology's shards over pipes.
func (tt *testTopo) addStandby(opts Options, cat *event.Catalog) *Standby {
	sb := tt.newStandby(opts, cat)
	sbc, sbs := transport.Pipe()
	go sb.ServeConn(sbs)
	tt.coord.AddStandbyConn(sbc, "standby-0")
	return sb
}

// newStandby builds a standby over cat that dials the topology's shards
// over pipes, not yet attached to the coordinator.
func (tt *testTopo) newStandby(opts Options, cat *event.Catalog) *Standby {
	return NewStandby(StandbyOptions{
		Central: opts,
		Catalog: cat,
		Dial: func(addr string) (*transport.Conn, error) {
			for i, s := range tt.shards {
				if addr == fmt.Sprintf("shard-%d", i) {
					cc, cs := transport.Pipe()
					go s.node.ServeConn(cs)
					return cc, nil
				}
			}
			return nil, fmt.Errorf("unknown shard %q", addr)
		},
	})
}

func (tt *testTopo) close() {
	tt.router.Close()
	tt.coord.Close()
	for _, s := range tt.shards {
		s.kill()
	}
}

func (tt *testTopo) startQuery(t *testing.T, id uint64, src string, lateness time.Duration, col *collector) {
	t.Helper()
	q, err := ql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := ql.Analyze(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	plan := central.FromPlan(qp, id, 0, 0, 1, 1)
	plan.Text = src
	plan.Lateness = lateness
	if err := tt.coord.StartQuery(plan, col.emit); err != nil {
		t.Fatal(err)
	}
	m, ok := tt.coord.PinnedMap(id)
	if !ok {
		t.Fatalf("query %d has no pinned epoch", id)
	}
	tt.router.PinQuery(id, m.Epoch)
}

// send ships one single-tuple batch through the router.
func (tt *testTopo) send(t *testing.T, id, rid uint64, ts int64) {
	t.Helper()
	err := tt.router.SendBatch(transport.TupleBatch{
		QueryID: id, HostID: "h1", TypeIdx: 0,
		Tuples: []transport.Tuple{{RequestID: rid, TsNanos: ts, Values: []event.Value{event.Float(1)}}},
	})
	if err != nil {
		t.Fatalf("send rid=%d ts=%d: %v", rid, ts, err)
	}
}

const sec = int64(time.Second)

func countOf(t *testing.T, rw transport.ResultWindow) int64 {
	t.Helper()
	if len(rw.Rows) != 1 || len(rw.Rows[0]) < 1 {
		t.Fatalf("window [%d,%d): want one count row, got %v", rw.WindowStart, rw.WindowEnd, rw.Rows)
	}
	n, ok := rw.Rows[0][0].AsInt()
	if !ok {
		t.Fatalf("count column not an int: %v", rw.Rows[0][0])
	}
	return n
}

// TestShardKillMidQuery kills one of two shards mid-query and asserts
// windows keep closing — degraded, with the lost tuples accounted as
// drops — instead of the watermark wedging.
func TestShardKillMidQuery(t *testing.T) {
	vc := &vclock{}
	tt := newTestTopo(t, 2, Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer tt.close()
	col := &collector{}
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, col)

	// Window [0,10s): rids 0..5 land 3 per shard (rid % 2).
	for i := 0; i < 6; i++ {
		vc.nanos = int64(i+1) * sec
		tt.send(t, 1, uint64(i), int64(i+1)*sec)
	}
	// ts=12s advances the watermark past 10s+lateness: [0,10s) closes.
	vc.nanos = 12 * sec
	tt.send(t, 1, 6, 12*sec)
	if len(col.wins) != 1 {
		t.Fatalf("want 1 window before the kill, got %d", len(col.wins))
	}
	if col.wins[0].Degraded {
		t.Fatal("window closed before the kill must not be degraded")
	}
	if n := countOf(t, col.wins[0]); n != 6 {
		t.Fatalf("window [0,10s) count = %d, want 6", n)
	}

	// Shard 1 dies. Tuples keep flowing: odd rids now drop at the router,
	// even rids land on the survivor, and the manifests keep the
	// watermark moving.
	tt.shards[1].kill()
	for i := 12; i < 22; i++ {
		vc.nanos = int64(i+1) * sec
		tt.send(t, 1, uint64(i), int64(i+1)*sec)
	}
	vc.nanos = 32 * sec
	tt.send(t, 1, 32, 32*sec)
	if len(col.wins) < 2 {
		t.Fatalf("windows stopped closing after shard death: %d total", len(col.wins))
	}
	for _, rw := range col.wins[1:] {
		if !rw.Degraded {
			t.Errorf("window [%d,%d) after shard death not flagged Degraded", rw.WindowStart, rw.WindowEnd)
		}
	}
	// Window [10s,20s): rids 6 (ts 12s, even) and 12..18 even (13s..19s)
	// reached the survivor; odd rids died with shard 1.
	if n := countOf(t, col.wins[1]); n != 5 {
		t.Fatalf("degraded window [10s,20s) count = %d, want 5 (survivor-shard tuples only)", n)
	}

	// A tick sweeps the dead shard out of the membership: epoch bumps and
	// the map shrinks, but the running query keeps its pinned topology.
	pinned, _ := tt.coord.PinnedMap(1)
	epochBefore := pinned.Epoch
	tt.coord.Tick(vc.nanos)
	if m := tt.coord.ShardMap(); len(m.Addrs) != 1 || m.Epoch <= epochBefore {
		t.Fatalf("membership after death sweep: %+v (want 1 addr, epoch > %d)", m, epochBefore)
	}
	if m, ok := tt.coord.PinnedMap(1); !ok || m.Epoch != epochBefore {
		t.Fatalf("running query's pinned epoch changed: %d -> %d", epochBefore, m.Epoch)
	}

	stats, ok := tt.coord.StopQuery(1)
	if !ok {
		t.Fatal("StopQuery missed")
	}
	if stats.DegradedWindows == 0 {
		t.Error("final stats did not count degraded windows")
	}
	if stats.Windows != uint64(len(col.wins)) {
		t.Errorf("stats.Windows = %d, emitted %d", stats.Windows, len(col.wins))
	}
}

// TestShardProcessWeightsGovernedBatch: a sub-batch carries its batch's
// rate to the shard process, which weights the tuples as an in-process
// kernel does: ten tuples sampled at half the plan rate count twenty.
func TestShardProcessWeightsGovernedBatch(t *testing.T) {
	vc := &vclock{}
	tt := newTestTopo(t, 2, Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer tt.close()
	col := &collector{}
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, col)
	b := transport.TupleBatch{QueryID: 1, HostID: "h1", EffRate: 0.5}
	for i := range 10 {
		b.Tuples = append(b.Tuples, transport.Tuple{RequestID: uint64(i), TsNanos: int64(i+1) * sec / 2, Values: []event.Value{event.Float(1)}})
	}
	vc.nanos = 5 * sec
	if err := tt.router.SendBatch(b); err != nil {
		t.Fatal(err)
	}
	// ts=12s advances the watermark past 10s+lateness: [0,10s) closes.
	vc.nanos = 12 * sec
	tt.send(t, 1, 100, 12*sec)
	if len(col.wins) != 1 {
		t.Fatalf("want 1 window, got %d", len(col.wins))
	}
	if n := countOf(t, col.wins[0]); n != 20 || !col.wins[0].Approx {
		t.Errorf("window [0,10s) count = %d (approx %v), want 20, approximate", n, col.wins[0].Approx)
	}
}

// TestShardJoinMidQuery joins a third shard mid-query: the running query
// keeps its 2-shard pin and its results stay exact; a query started after
// the join routes over all three shards.
func TestShardJoinMidQuery(t *testing.T) {
	vc := &vclock{}
	tt := newTestTopo(t, 2, Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer tt.close()
	col := &collector{}
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, col)

	for i := 0; i < 4; i++ {
		vc.nanos = int64(i+1) * sec
		tt.send(t, 1, uint64(i), int64(i+1)*sec)
	}

	tt.addShard(t) // join: epoch bumps, map now 3 shards

	if m := tt.coord.ShardMap(); len(m.Addrs) != 3 {
		t.Fatalf("membership after join: %+v", m)
	}
	// The running query still routes rid%2 and merges from its pinned two
	// shards: deliveries after the join must not disturb it.
	for i := 4; i < 6; i++ {
		vc.nanos = int64(i+1) * sec
		tt.send(t, 1, uint64(i), int64(i+1)*sec)
	}
	vc.nanos = 12 * sec
	tt.send(t, 1, 6, 12*sec)
	if len(col.wins) != 1 {
		t.Fatalf("want 1 closed window, got %d", len(col.wins))
	}
	if rw := col.wins[0]; rw.Degraded || countOf(t, rw) != 6 {
		t.Fatalf("window after join: degraded=%v count=%d, want exact 6", rw.Degraded, countOf(t, rw))
	}

	// A new query pins the post-join epoch and lands on all three shards.
	col2 := &collector{}
	tt.startQuery(t, 2, `select count(*) from ev window 10s`, time.Second, col2)
	for i := 0; i < 6; i++ {
		vc.nanos += sec
		tt.send(t, 2, uint64(i), int64(i+1)*sec)
	}
	st := tt.coord.Status()
	if len(st.Shards) != 3 {
		t.Fatalf("status shards: %d, want 3", len(st.Shards))
	}
	for _, row := range st.Shards {
		if row.Down {
			t.Errorf("shard %d (%s) reported down", row.Index, row.Addr)
		}
		if row.ActiveQueries == 0 {
			t.Errorf("shard %d (%s) has no active queries; join did not distribute", row.Index, row.Addr)
		}
	}
	if _, ok := tt.coord.StopQuery(1); !ok {
		t.Fatal("StopQuery(1) missed")
	}
	if _, ok := tt.coord.StopQuery(2); !ok {
		t.Fatal("StopQuery(2) missed")
	}
}

// TestShardLeaveReMerge stops a query cleanly after a shard has died and
// checks the re-merge at StopQuery: the surviving shard's windows drain
// without divergence — every remaining tuple lands in exactly one final
// window and the drop accounting balances.
func TestShardLeaveReMerge(t *testing.T) {
	vc := &vclock{}
	tt := newTestTopo(t, 2, Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer tt.close()
	col := &collector{}
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, col)

	for i := 0; i < 6; i++ {
		vc.nanos = int64(i+1) * sec
		tt.send(t, 1, uint64(i), int64(i+1)*sec)
	}
	tt.shards[1].kill()
	// Open window [0,10s) holds 3 tuples on each shard; shard 1's three
	// are unrecoverable. Stop must still drain shard 0's partials.
	stats, ok := tt.coord.StopQuery(1)
	if !ok {
		t.Fatal("StopQuery missed")
	}
	if len(col.wins) != 1 {
		t.Fatalf("drain emitted %d windows, want 1", len(col.wins))
	}
	rw := col.wins[0]
	if !rw.Degraded {
		t.Error("drained window after shard death not flagged Degraded")
	}
	if n := countOf(t, rw); n != 3 {
		t.Errorf("drained window count = %d, want 3 (surviving shard)", n)
	}
	if stats.TuplesIn != 3 {
		t.Errorf("stats.TuplesIn = %d, want 3", stats.TuplesIn)
	}
}

// TestRouterFallback: a query with no epoch pin goes to the fallback sink
// whole — the single-process central path.
func TestRouterFallback(t *testing.T) {
	var got []transport.TupleBatch
	r := NewRouter(func(transport.BatchManifest) error { return nil },
		func(b transport.TupleBatch) error { got = append(got, b); return nil })
	b := transport.TupleBatch{QueryID: 9, HostID: "h", Tuples: []transport.Tuple{{RequestID: 1}}}
	if err := r.SendBatch(b); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Tuples) != 1 {
		t.Fatalf("fallback did not receive the whole batch: %+v", got)
	}

	// Without a fallback, an unpinned query is an error, not silence.
	r2 := NewRouter(func(transport.BatchManifest) error { return nil }, nil)
	if err := r2.SendBatch(b); err == nil {
		t.Fatal("unpinned query with no fallback must error")
	}
}

// TestCoordMetricsZeroAlloc pins the scrub_coord_* update paths to zero
// allocations, like the other components' hot counters.
func TestCoordMetricsZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	m := newCoordMetrics(reg)
	lag := m.shardLag("shard-0")
	if allocs := testing.AllocsPerRun(200, func() {
		m.manifests.Inc()
		m.tuples.Add(17)
		m.merges.Inc()
		m.rebalances.Inc()
		m.setMembership(4, 9)
		lag.Set(123456)
	}); allocs != 0 {
		t.Fatalf("metric updates allocate: %v allocs/op", allocs)
	}
}

// TestMetricsMembershipSeries: shard lag gauges appear on join and vanish
// on leave.
func TestMetricsMembershipSeries(t *testing.T) {
	reg := obs.NewRegistry()
	vc := &vclock{}
	c := NewCoordinator(Options{Clock: vc.now, Metrics: reg})
	a1, b1 := transport.Pipe()
	defer b1.Close()
	node := NewShardNode(testCatalog())
	go node.ServeConn(b1)
	c.AddShardConn(a1, "s0")

	found := func(name string) bool {
		for _, s := range reg.Snapshot() {
			if s.Name == name {
				return true
			}
		}
		return false
	}
	if !found("scrub_coord_shard_lag_ns") {
		t.Fatal("per-shard lag gauge not registered on join")
	}
	if !found("scrub_coord_shards") || !found("scrub_coord_epoch") {
		t.Fatal("membership gauges not registered")
	}
	a1.Close()
	// Force the down flag, then sweep.
	if _, err := c.members[0].stats(0); err == nil {
		t.Fatal("an RPC over a closed conn should fail")
	}
	c.Tick(0)
	if found("scrub_coord_shard_lag_ns") {
		t.Fatal("per-shard lag gauge not unregistered on leave")
	}
}

// TestCoordWindowMetrics: windows a multi-process ScrubCentral emits
// show up in the scrub_central_* window series, like any executor's.
// (Bugfix: the coordinator's own emit path used to record none of them.)
func TestCoordWindowMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	vc := &vclock{}
	tt := newTestTopo(t, 2, Options{Clock: vc.now, LeaseTTL: time.Hour, Metrics: reg})
	defer tt.close()
	col := &collector{}
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, col)
	tt.send(t, 1, 0, sec)
	tt.send(t, 1, 1, 2*sec)
	tt.send(t, 1, 2, 12*sec) // closes [0,10s)
	if len(col.wins) != 1 {
		t.Fatalf("want 1 closed window, got %d", len(col.wins))
	}
	got := map[string]float64{}
	for _, s := range reg.Snapshot() {
		got[s.Name] = s.Value
	}
	for name, want := range map[string]float64{
		"scrub_central_windows_total":          1,
		"scrub_central_degraded_windows_total": 0,
		"scrub_central_shed_windows_total":     0,
		"scrub_central_window_close_ns_count":  1,
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("%s = %v (registered: %v), want %v", name, v, ok, want)
		}
	}
}

// TestCollectStaleOrGarbageDegrades plays shard 1 by hand through the two
// replies only a wire client can get: a partial whose bytes do not decode
// (that window's shard-1 state is lost; shard 0's still renders), and a
// Stale rejection (this coordinator was deposed; the client latches
// down). Either way the query latches Degraded and keeps closing windows.
func TestCollectStaleOrGarbageDegrades(t *testing.T) {
	vc := &vclock{}
	c := NewCoordinator(Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer c.Close()
	node := NewShardNode(testCatalog())
	cc0, cs0 := transport.Pipe()
	go node.ServeConn(cs0)
	c.AddShardConn(cc0, "shard-0")
	cc1, cs1 := transport.Pipe()
	c.AddShardConn(cc1, "shard-1")

	// answer serves shard 1's side of one round-trip.
	answer := func(reply func(transport.Message) transport.Message) {
		t.Helper()
		m, err := cs1.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		if err := cs1.Send(reply(m)); err != nil {
			t.Error(err)
		}
	}
	q, err := ql.Parse(`select count(*) from ev window 10s`)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := ql.Analyze(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	plan := central.FromPlan(qp, 1, 0, 0, 1, 1)
	plan.Text = `select count(*) from ev window 10s`
	plan.Lateness = time.Second
	col := &collector{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		answer(func(m transport.Message) transport.Message {
			return transport.ShardAck{Seq: m.(transport.ShardStart).Seq}
		})
	}()
	if err := c.StartQuery(plan, col.emit); err != nil {
		t.Fatal(err)
	}
	<-done

	// Shard 0 holds two tuples of [0,10s); the manifest closes the window.
	for rid := uint64(0); rid < 4; rid += 2 {
		node.eng.ApplyDriven(transport.TupleBatch{QueryID: 1, HostID: "h1",
			Tuples: []transport.Tuple{{RequestID: rid, TsNanos: sec, Values: []event.Value{event.Float(1)}}}})
	}
	closeAt := func(ts int64, reply func(transport.ShardCollectReq) transport.ShardPartials) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			answer(func(m transport.Message) transport.Message { return reply(m.(transport.ShardCollectReq)) })
		}()
		c.HandleManifest(transport.BatchManifest{TupleBatch: transport.TupleBatch{QueryID: 1, HostID: "h1"}, RawTuples: 1, HasTs: true, MaxTs: ts})
		<-done
	}
	closeAt(12*sec, func(r transport.ShardCollectReq) transport.ShardPartials {
		return transport.ShardPartials{Seq: r.Seq,
			Partials: []transport.WindowPartial{{Start: 0, End: 10 * sec, Data: []byte{0xff}}}}
	})
	if len(col.wins) != 1 || !col.wins[0].Degraded || countOf(t, col.wins[0]) != 2 {
		t.Fatalf("after a garbage partial: %+v, want one Degraded window counting shard 0's 2", col.wins)
	}

	node.eng.ApplyDriven(transport.TupleBatch{QueryID: 1, HostID: "h1",
		Tuples: []transport.Tuple{{RequestID: 4, TsNanos: 13 * sec, Values: []event.Value{event.Float(1)}}}})
	closeAt(22*sec, func(r transport.ShardCollectReq) transport.ShardPartials {
		return transport.ShardPartials{Seq: r.Seq, Stale: true}
	})
	if len(col.wins) != 2 || !col.wins[1].Degraded || countOf(t, col.wins[1]) != 1 {
		t.Fatalf("after a stale rejection: %+v, want a second Degraded window counting 1", col.wins)
	}
	if !c.members[1].Down() {
		t.Error("a stale rejection must latch the client down")
	}
}

// TestStartQueryTwoPhase drives the install interleaving by hand: the
// test plays shard 1 and, while the coordinator's StartQuery is blocked
// on its ShardStart RPC, probes the half-installed query. The entry must
// be invisible — manifests and whole batches dropped, StopQuery/Stats
// unknown — so the rollback after shard 1's refusal never races state
// someone else folded in. (PR 10 bugfix: the query used to be published
// before install; the whole-batch path kept absorbing until the merge
// core gave both entries one check. central.TestMergerTwoPhaseInstall is
// the same probe over direct clients.)
func TestStartQueryTwoPhase(t *testing.T) {
	vc := &vclock{}
	c := NewCoordinator(Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer c.Close()

	// Shard 0: a real node. Shard 1: the test goroutine, speaking the
	// shard protocol by hand.
	node := NewShardNode(testCatalog())
	cc0, cs0 := transport.Pipe()
	go node.ServeConn(cs0)
	c.AddShardConn(cc0, "shard-0")
	cc1, cs1 := transport.Pipe()
	c.AddShardConn(cc1, "shard-1")

	q, err := ql.Parse(`select count(*) from ev window 10s`)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := ql.Analyze(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	plan := central.FromPlan(qp, 1, 0, 0, 1, 1)
	plan.Text = `select count(*) from ev window 10s`

	col := &collector{}
	startErr := make(chan error, 1)
	go func() { startErr <- c.StartQuery(plan, col.emit) }()

	// Act as shard 1: the coordinator is now mid-install (shard 0
	// accepted; we have not answered).
	m, err := cs1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	start, ok := m.(transport.ShardStart)
	if !ok {
		t.Fatalf("shard 1 received %s, want ShardStart", transport.Name(m))
	}

	// Probe the pending entry: it must be invisible to every Executor
	// surface, and a manifest racing the install must be dropped.
	c.HandleManifest(transport.BatchManifest{
		TupleBatch: transport.TupleBatch{QueryID: 1, HostID: "h1"},
		RawTuples:  1, HasTs: true, MaxTs: 50 * sec,
	})
	// A legacy whole batch racing the install must not reach shard 0,
	// which already runs the query: its tuples would vanish on shard 1.
	c.HandleBatch(transport.TupleBatch{
		QueryID: 1, HostID: "h1",
		Tuples: []transport.Tuple{{RequestID: 0, TsNanos: sec}, {RequestID: 2, TsNanos: 2 * sec}},
	})
	if tuples, ok := node.eng.TuplesIn(1); !ok || tuples != 0 {
		t.Errorf("shard 0 absorbed %d tuples of a half-installed query (running there: %v)", tuples, ok)
	}
	if _, ok := c.Stats(1); ok {
		t.Error("Stats sees a query whose install has not finished")
	}
	if _, ok := c.StopQuery(1); ok {
		t.Error("StopQuery stopped a query whose install has not finished")
	}

	// Refuse the start: the rollback must leave no trace.
	if err := cs1.Send(transport.ShardAck{Seq: start.Seq, Err: "no capacity"}); err != nil {
		t.Fatal(err)
	}
	if err := <-startErr; err == nil {
		t.Fatal("StartQuery succeeded despite shard refusal")
	}
	if _, ok := c.Stats(1); ok {
		t.Error("Stats sees the query after rollback")
	}
	if len(col.wins) != 0 {
		t.Errorf("rolled-back query emitted %d windows", len(col.wins))
	}
	// The dropped manifest must not have left stream state behind: shard
	// 0 no longer runs the query either (rollback stopped it).
	if qs := node.eng.DrivenQueries(); len(qs) != 0 {
		t.Errorf("shard 0 still runs %v after rollback", qs)
	}

	// The same id must be startable again once the bad shard is gone.
	cs1.Close()
	if _, err := c.members[1].stats(0); err == nil {
		t.Fatal("an RPC over a closed conn should fail")
	}
	c.Tick(0) // sweep shard 1 out
	if err := c.StartQuery(plan, col.emit); err != nil {
		t.Fatalf("restart after rollback: %v", err)
	}
	if _, ok := c.StopQuery(1); !ok {
		t.Fatal("restarted query not stoppable")
	}
}

// TestStartQueryRollbackManifestRace is the -race companion of the
// two-phase test: manifests and stops hammer the coordinator from other
// goroutines while StartQuery installs against a shard that refuses
// (empty catalog). Correctness here is "the detector stays quiet and
// nothing leaks" — the deterministic interleaving is pinned above.
func TestStartQueryRollbackManifestRace(t *testing.T) {
	vc := &vclock{}
	c := NewCoordinator(Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer c.Close()
	good := NewShardNode(testCatalog())
	cc0, cs0 := transport.Pipe()
	go good.ServeConn(cs0)
	c.AddShardConn(cc0, "shard-0")
	// This shard's catalog cannot resolve "ev": every ShardStart fails.
	bad := NewShardNode(event.NewCatalog())
	cc1, cs1 := transport.Pipe()
	go bad.ServeConn(cs1)
	c.AddShardConn(cc1, "shard-1")

	q, _ := ql.Parse(`select count(*) from ev window 10s`)
	qp, err := ql.Analyze(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{}, 2)
	go func() {
		defer func() { done <- struct{}{} }()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.HandleManifest(transport.BatchManifest{
				TupleBatch: transport.TupleBatch{QueryID: 1, HostID: "h1"},
				RawTuples:  1, HasTs: true, MaxTs: i * sec,
			})
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.StopQuery(1)
		}
	}()
	for i := 0; i < 50; i++ {
		plan := central.FromPlan(qp, 1, 0, 0, 1, 1)
		plan.Text = `select count(*) from ev window 10s`
		if err := c.StartQuery(plan, func(transport.ResultWindow) {}); err == nil {
			t.Fatal("StartQuery succeeded against a shard that cannot resolve the schema")
		}
	}
	close(stop)
	<-done
	<-done
	if _, ok := c.Stats(1); ok {
		t.Error("query 1 leaked through rollback")
	}
	if qs := good.eng.DrivenQueries(); len(qs) != 0 {
		t.Errorf("good shard still runs %v after rollbacks", qs)
	}
}

// TestManifestTupleFreeHasTs: a manifest whose tuples were all shard-side
// filtered or late-dropped (RawTuples 0 with HasTs or LateDelta) must
// still advance the stream's clock and fold its late drops — otherwise a
// host in that state stalls the watermark for every host until its lease
// expires. (PR 10 bugfix: the tuple-free early return skipped both.)
func TestManifestTupleFreeHasTs(t *testing.T) {
	vc := &vclock{}
	tt := newTestTopo(t, 1, Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer tt.close()
	col := &collector{}
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, col)

	// One real tuple in [0,10s).
	vc.nanos = sec
	tt.send(t, 1, 0, sec)
	if len(col.wins) != 0 {
		t.Fatalf("window closed early: %d", len(col.wins))
	}

	// A tuple-free manifest from the same stream carries the clock past
	// the close bound — as when every tuple in the batch was late-dropped
	// shard-side — plus a late-drop delta to fold.
	vc.nanos = 12 * sec
	tt.coord.HandleManifest(transport.BatchManifest{
		TupleBatch: transport.TupleBatch{QueryID: 1, HostID: "h1", TypeIdx: 0},
		RawTuples:  0, HasTs: true, MaxTs: 12 * sec, LateDelta: 3,
	})
	if len(col.wins) != 1 {
		t.Fatalf("tuple-free HasTs manifest did not close the window: %d windows", len(col.wins))
	}
	rw := col.wins[0]
	if n := countOf(t, rw); n != 1 {
		t.Errorf("window count = %d, want 1", n)
	}
	var lateDrops uint64
	for _, s := range rw.Streams {
		if s.HostID == "h1" {
			lateDrops = s.LateDrops
		}
	}
	if lateDrops != 3 {
		t.Errorf("stream late drops = %d, want 3 (LateDelta folded before the tuple-free return)", lateDrops)
	}
}

// TestStopAfterMemberRemoval stops a query after its pinned shard died
// AND was swept out of the membership. The sweep must not tear down the
// client object the query still holds: StopQuery takes the degrade path
// against the latched-down client and drains the survivor cleanly.
// (PR 10 bugfix: removeDownLocked used to close() the client it was
// promising to keep.)
func TestStopAfterMemberRemoval(t *testing.T) {
	vc := &vclock{}
	tt := newTestTopo(t, 2, Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer tt.close()
	col := &collector{}
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, col)

	for i := 0; i < 6; i++ {
		vc.nanos = int64(i+1) * sec
		tt.send(t, 1, uint64(i), int64(i+1)*sec)
	}
	tt.shards[1].kill()
	// Latch the death into the coordinator's client (first failed RPC),
	// then sweep the membership.
	if _, ok := tt.coord.Stats(1); !ok {
		t.Fatal("Stats missed")
	}
	epochBefore := tt.coord.ShardMap().Epoch
	tt.coord.Tick(vc.nanos)
	if m := tt.coord.ShardMap(); len(m.Addrs) != 1 || m.Epoch <= epochBefore {
		t.Fatalf("sweep did not remove the dead shard: %+v", m)
	}

	// The stop after the sweep: survivor drained, dead shard degraded.
	stats, ok := tt.coord.StopQuery(1)
	if !ok {
		t.Fatal("StopQuery missed after member removal")
	}
	if len(col.wins) != 1 {
		t.Fatalf("drain emitted %d windows, want 1", len(col.wins))
	}
	if rw := col.wins[0]; !rw.Degraded {
		t.Error("drained window not flagged Degraded")
	} else if n := countOf(t, rw); n != 3 {
		t.Errorf("drained count = %d, want 3 (surviving shard)", n)
	}
	if stats.TuplesIn != 3 {
		t.Errorf("stats.TuplesIn = %d, want 3", stats.TuplesIn)
	}
}

// TestLeaderFailover is the tentpole scenario end to end, in-process: a
// replicating leader with a standby loses a query mid-flight, the
// standby promotes under a higher fencing term, re-pins the shards,
// stops the leader's orphan registration, resumes the replicated query,
// and finishes it with exact counts (honestly flagged Degraded) — while
// the deposed leader, still alive, is fenced out of emitting anything.
func TestLeaderFailover(t *testing.T) {
	vc := &vclock{}
	opts := Options{Clock: vc.now, LeaseTTL: time.Hour}
	tt := newTestTopo(t, 2, opts)
	defer tt.close()
	// Heartbeat an hour out: replication in this test rides the
	// synchronous appends only, keeping the interleaving deterministic.
	tt.coord.StartReplication(ReplicationConfig{Term: 1, Heartbeat: time.Hour})
	if tt.coord.fence.Load() != 1 {
		t.Fatalf("leader fence = %d, want 1", tt.coord.fence.Load())
	}

	sb := tt.addStandby(opts, testCatalog())

	const src = `select count(*) from ev window 10s`
	col1 := &collector{}
	tt.startQuery(t, 1, src, time.Second, col1)

	// Pre-failover traffic: six tuples in [0,10s), then one at 12s that
	// closes the first window on the leader.
	for i := 0; i < 6; i++ {
		vc.nanos = int64(i+1) * sec
		tt.send(t, 1, uint64(i), int64(i+1)*sec)
	}
	vc.nanos = 12 * sec
	tt.send(t, 1, 6, 12*sec)
	if len(col1.wins) != 1 {
		t.Fatalf("leader emitted %d windows pre-failover, want 1", len(col1.wins))
	}
	if n := countOf(t, col1.wins[0]); n != 6 {
		t.Fatalf("pre-failover count = %d, want 6", n)
	}
	if col1.wins[0].Degraded {
		t.Error("pre-failover window flagged Degraded")
	}

	// The standby shadows the registration.
	if term, qs := sb.Snapshot(); term != 1 || len(qs) != 1 || qs[0] != 1 {
		t.Fatalf("standby snapshot term=%d queries=%v, want term 1 queries [1]", term, qs)
	}

	// An orphan: the leader died mid-StartQuery — installed on shard 0,
	// never replicated. Takeover must stop it.
	{
		q, err := ql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := ql.Analyze(q, testCatalog())
		if err != nil {
			t.Fatal(err)
		}
		plan7 := central.FromPlan(qp, 7, 0, 0, 1, 1)
		plan7.Text = src
		if err := tt.shards[0].node.eng.StartDriven(plan7); err != nil {
			t.Fatal(err)
		}
	}

	// Promote while the old leader still runs: fencing, not leader
	// death, is what keeps this safe.
	old := tt.coord
	col2 := &collector{}
	promoted, resumed, err := sb.Promote(col2.emit)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	tt.coord = promoted // manifests and Stop/Tick now target the new leader

	if promoted.fence.Load() != 2 {
		t.Errorf("promoted fence = %d, want 2", promoted.fence.Load())
	}
	if len(resumed) != 1 || resumed[0].QueryID != 1 || resumed[0].Text != src || resumed[0].StartNanos != 0 || resumed[0].EndNanos != 0 ||
		resumed[0].TotalHosts != 1 || resumed[0].SampledHosts != 1 {
		t.Fatalf("resumed = %+v, want query 1 with the original text, span and host counts", resumed)
	}
	if m, _ := promoted.PinnedMap(1); m.Epoch != 2 {
		t.Errorf("resumed pin epoch = %d, want 2", m.Epoch)
	}
	for i, s := range tt.shards {
		if f := s.node.fence.Load(); f != 2 {
			t.Errorf("shard %d fence = %d, want 2", i, f)
		}
	}
	if qs := tt.shards[0].node.eng.DrivenQueries(); len(qs) != 1 || qs[0] != 1 {
		t.Errorf("shard 0 active queries after takeover = %v, want [1] (orphan stopped)", qs)
	}
	if _, _, err := sb.Promote(nil); err == nil {
		t.Error("second Promote did not error")
	}

	// The new leader's map (fence 2) applies; the deposed leader's push
	// (fence 1) must be ignored.
	tt.router.HandleShardMap(promoted.ShardMap())
	tt.router.HandleShardMap(transport.ShardMap{Epoch: 99, Fence: 1, Addrs: []string{"bogus"}})
	tt.router.mu.Lock()
	_, leaked := tt.router.maps[99]
	tt.router.mu.Unlock()
	if leaked {
		t.Error("router applied a shard map from a deposed leader")
	}

	// Post-failover traffic: [10,20s) holds the 12s tuple absorbed under
	// the old leader plus six new ones — exact count across the takeover.
	for i := 0; i < 6; i++ {
		vc.nanos = int64(13+i) * sec
		tt.send(t, 1, uint64(12+i), int64(13+i)*sec)
	}
	vc.nanos = 30 * sec
	tt.send(t, 1, 30, 30*sec)
	if len(col2.wins) != 1 {
		t.Fatalf("promoted leader emitted %d windows, want 1", len(col2.wins))
	}
	if n := countOf(t, col2.wins[0]); n != 7 {
		t.Errorf("post-failover count = %d, want 7 (1 pre-kill + 6 post)", n)
	}
	if !col2.wins[0].Degraded {
		t.Error("post-failover window not flagged Degraded")
	}
	if s, e := col2.wins[0].WindowStart, col2.wins[0].WindowEnd; s != 10*sec || e != 20*sec {
		t.Errorf("post-failover window [%d,%d), want [10s,20s)", s, e)
	}

	// The zombie: its collect/stop RPCs are stale on every shard, so it
	// can emit nothing — not even on an explicit drain.
	pre := len(col1.wins)
	old.Tick(vc.nanos)
	if _, ok := old.StopQuery(1); !ok {
		t.Error("zombie StopQuery lost its own registration")
	}
	if len(col1.wins) != pre {
		t.Errorf("zombie emitted %d windows after being fenced", len(col1.wins)-pre)
	}

	// The survivor drains cleanly: the 30s tuple is still pending.
	stats, ok := tt.coord.StopQuery(1)
	if !ok {
		t.Fatal("StopQuery on promoted leader missed")
	}
	if stats.DegradedWindows == 0 {
		t.Error("post-failover stats counted no degraded windows")
	}
	if len(col2.wins) != 2 {
		t.Fatalf("drain emitted %d total windows, want 2", len(col2.wins))
	}
	if n := countOf(t, col2.wins[1]); n != 1 {
		t.Errorf("drained count = %d, want 1", n)
	}
}

// TestPromoteResumesPinnedShardList: a third shard joins after a query
// pinned two, then the standby promotes. The resumed query keeps the
// shard list it pinned, so the map a re-synced host is sent routes
// rid % 2 like every other host's, and the shard that joined later is
// not handed the query.
func TestPromoteResumesPinnedShardList(t *testing.T) {
	vc := &vclock{}
	opts := Options{Clock: vc.now, LeaseTTL: time.Hour}
	tt := newTestTopo(t, 2, opts)
	defer tt.close()
	tt.coord.StartReplication(ReplicationConfig{Term: 1, Heartbeat: time.Hour})
	sb := tt.addStandby(opts, testCatalog())
	col := &collector{}
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, col)
	want, _ := tt.coord.PinnedMap(1)
	tt.addShard(t)

	old := tt.coord
	defer old.Close()
	promoted, resumed, err := sb.Promote(col.emit)
	if err != nil {
		t.Fatal(err)
	}
	tt.coord = promoted
	if len(resumed) != 1 {
		t.Fatalf("resumed %+v, want query 1", resumed)
	}
	if got, ok := promoted.PinnedMap(1); !ok || got.Epoch != want.Epoch || !reflect.DeepEqual(got.Addrs, want.Addrs) {
		t.Errorf("promoted leader pins epoch %d = %v, want epoch %d = %v", got.Epoch, got.Addrs, want.Epoch, want.Addrs)
	}
	if qs := tt.shards[2].node.eng.DrivenQueries(); len(qs) != 0 {
		t.Errorf("the shard that joined after the pin runs %v after takeover, want none", qs)
	}
}

// TestPromoteDrainsUnresumable: a replicated registration the standby
// cannot resume — here its catalog lacks the query's event type, the
// catalog drift a rolling upgrade can leave — is drained from every
// shard at takeover. The fence step spares it as replicated, so without
// the drain no leader would ever stop it and it would hold shard memory
// for good.
func TestPromoteDrainsUnresumable(t *testing.T) {
	vc := &vclock{}
	opts := Options{Clock: vc.now, LeaseTTL: time.Hour}
	tt := newTestTopo(t, 2, opts)
	defer tt.close()
	tt.coord.StartReplication(ReplicationConfig{Term: 1, Heartbeat: time.Hour})

	drifted := event.NewCatalog()
	drifted.MustRegister(event.MustSchema("other", event.FieldDef{Name: "v", Kind: event.KindFloat}))
	sb := tt.addStandby(opts, drifted)

	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, &collector{})
	if _, qs := sb.Snapshot(); len(qs) != 1 || qs[0] != 1 {
		t.Fatalf("standby shadows queries %v, want [1]", qs)
	}
	for i, s := range tt.shards {
		if qs := s.node.eng.DrivenQueries(); len(qs) != 1 {
			t.Fatalf("shard %d runs %v before takeover, want [1]", i, qs)
		}
	}

	old := tt.coord
	defer old.Close()
	promoted, resumed, err := sb.Promote((&collector{}).emit)
	if err != nil {
		t.Fatal(err)
	}
	tt.coord = promoted
	if len(resumed) != 0 {
		t.Fatalf("resumed %+v with a catalog that lacks its type", resumed)
	}
	for i, s := range tt.shards {
		if qs := s.node.eng.DrivenQueries(); len(qs) != 0 {
			t.Errorf("shard %d still runs %v after a takeover that resumed nothing", i, qs)
		}
	}
}

// TestStandbyAwaitFailover pins the failover trigger contract: never
// before the first leader contact, and only after the configured
// silence once contact was made.
func TestStandbyAwaitFailover(t *testing.T) {
	sb := NewStandby(StandbyOptions{FailoverTimeout: 50 * time.Millisecond})
	stop := make(chan struct{})
	defer close(stop)
	fired := make(chan bool, 1)
	go func() { fired <- sb.AwaitFailover(stop) }()
	select {
	case <-fired:
		t.Fatal("failover fired without ever hearing a leader")
	case <-time.After(200 * time.Millisecond):
	}
	if ack := sb.handleAppend(transport.RepAppend{Term: 1, Beat: true}); !ack.Ok {
		t.Fatalf("heartbeat append NAKed: %+v", ack)
	}
	select {
	case ok := <-fired:
		if !ok {
			t.Fatal("AwaitFailover returned false without stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("failover did not fire after leader silence")
	}
}

// TestLateStandbyGetsStateNotHistory: a standby added after many
// start/stop cycles is sent the state as it is then — one running query
// and the membership — so what it receives does not grow with the
// cycles the leader has run. A membership change, a start and a stop
// made after it joined each reach it, and it promotes over them.
func TestLateStandbyGetsStateNotHistory(t *testing.T) {
	const src = `select count(*) from ev window 10s`
	join := func(cycles int) (*testTopo, *Standby, uint64) {
		opts := Options{Clock: (&vclock{}).now, LeaseTTL: time.Hour}
		tt := newTestTopo(t, 2, opts)
		tt.coord.StartReplication(ReplicationConfig{Term: 1, Heartbeat: time.Hour})
		tt.startQuery(t, 1, src, time.Second, &collector{})
		for id := uint64(2); id < uint64(2+cycles); id++ {
			tt.startQuery(t, id, src, time.Second, &collector{})
			if _, ok := tt.coord.StopQuery(id); !ok {
				t.Fatalf("stop %d missed", id)
			}
		}
		sb := tt.newStandby(opts, testCatalog())
		sbc, sbs := transport.Pipe()
		met := transport.NewConnMetrics(obs.NewRegistry())
		sbs.SetMetrics(met)
		go sb.ServeConn(sbs)
		tt.coord.AddStandbyConn(sbc, "standby-0")
		return tt, sb, met.BytesRecv.Value()
	}
	few, _, fewBytes := join(1)
	few.close()
	tt, sb, manyBytes := join(100)
	defer tt.close()
	if fewBytes == 0 || manyBytes != fewBytes {
		t.Fatalf("a standby joining after 100 start/stop cycles received %d bytes, after 1 cycle %d: want the same, nonzero", manyBytes, fewBytes)
	}
	if _, qs := sb.Snapshot(); !reflect.DeepEqual(qs, []uint64{1}) {
		t.Fatalf("late standby holds queries %v, want [1]", qs)
	}

	tt.addShard(t)
	tt.startQuery(t, 500, src, time.Second, &collector{})
	if _, ok := tt.coord.StopQuery(1); !ok {
		t.Fatal("stop 1 missed")
	}
	if _, qs := sb.Snapshot(); !reflect.DeepEqual(qs, []uint64{500}) {
		t.Fatalf("standby holds queries %v after a start and a stop, want [500]", qs)
	}
	if ack := sb.handleAppend(transport.RepAppend{Term: 1, Beat: true}); !ack.Ok {
		t.Fatalf("heartbeat NAKed: %+v", ack)
	}
	if _, qs := sb.Snapshot(); !reflect.DeepEqual(qs, []uint64{500}) {
		t.Fatalf("a heartbeat left the standby holding queries %v, want [500]", qs)
	}
	wantMap := tt.coord.ShardMap()
	pin, _ := tt.coord.PinnedMap(500)
	if len(pin.Addrs) != 3 {
		t.Fatalf("query 500 pinned %v, want the three shards", pin.Addrs)
	}
	old := tt.coord
	defer old.Close()
	promoted, resumed, err := sb.Promote((&collector{}).emit)
	if err != nil {
		t.Fatal(err)
	}
	tt.coord = promoted
	if len(resumed) != 1 || resumed[0].QueryID != 500 {
		t.Fatalf("resumed %+v, want query 500", resumed)
	}
	if got := promoted.ShardMap(); got.Epoch != wantMap.Epoch || !reflect.DeepEqual(got.Addrs, wantMap.Addrs) {
		t.Errorf("promoted membership epoch %d = %v, want the leader's epoch %d = %v", got.Epoch, got.Addrs, wantMap.Epoch, wantMap.Addrs)
	}
	if got, _ := promoted.PinnedMap(500); got.Epoch != pin.Epoch || !reflect.DeepEqual(got.Addrs, pin.Addrs) {
		t.Errorf("query 500 resumed pinned to epoch %d = %v, want epoch %d = %v", got.Epoch, got.Addrs, pin.Epoch, pin.Addrs)
	}
}

// TestStatePushesRaceHeartbeats: heartbeats fire from the replicator's
// own goroutine while registrations and stops push the state; a beat
// carries no state, so whatever interleaving the two take, the standby
// ends holding what runs.
func TestStatePushesRaceHeartbeats(t *testing.T) {
	opts := Options{Clock: (&vclock{}).now, LeaseTTL: time.Hour}
	tt := newTestTopo(t, 2, opts)
	defer tt.close()
	tt.coord.StartReplication(ReplicationConfig{Term: 1, Heartbeat: time.Millisecond})
	sb := tt.addStandby(opts, testCatalog())
	const src = `select count(*) from ev window 10s`
	tt.startQuery(t, 1, src, time.Second, &collector{})
	for id := uint64(2); id < 40; id++ {
		tt.startQuery(t, id, src, time.Second, &collector{})
		if _, ok := tt.coord.StopQuery(id); !ok {
			t.Fatalf("stop %d missed", id)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if term, qs := sb.Snapshot(); term != 1 || !reflect.DeepEqual(qs, []uint64{1}) {
		t.Fatalf("standby at term %d holds queries %v, want term 1 and [1]", term, qs)
	}
}

// TestShardNodeServesStateGauges: in the multi-process topology the open
// windows live in the shard processes, so that is where their gauges are
// served from — and nothing else is: ingest is counted at the coordinator.
// (Bugfix: a shard process used to build its engine with no registry at
// all, so -metrics on it exported nothing.)
func TestShardNodeServesStateGauges(t *testing.T) {
	shardReg, coordReg := obs.NewRegistry(), obs.NewRegistry()
	vc := &vclock{}
	c := NewCoordinator(Options{Clock: vc.now, LeaseTTL: time.Hour, Metrics: coordReg})
	defer c.Close()
	cc, cs := transport.Pipe()
	defer cs.Close()
	go NewShardNodeWith(testCatalog(), shardReg).ServeConn(cs)
	c.AddShardConn(cc, "s0")

	src := `select count(*), sum(v) from ev window 10s`
	q, err := ql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := ql.Analyze(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	plan := central.FromPlan(qp, 1, 0, 0, 1, 1)
	plan.Text, plan.Lateness = src, time.Hour
	if err := c.StartQuery(plan, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	// Four windows opened in order, a tuple each; the hour of lateness
	// keeps all of them open.
	for w := int64(0); w < 4; w++ {
		c.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h1", Tuples: []transport.Tuple{
			{RequestID: uint64(w), TsNanos: w*10*sec + 1, Values: []event.Value{event.Float(1)}},
		}})
	}
	series := func(reg *obs.Registry) map[string]float64 {
		got := map[string]float64{}
		for _, s := range reg.Snapshot() {
			got[s.Name] = s.Value
		}
		return got
	}
	shard, coord := series(shardReg), series(coordReg)
	if shard["scrub_central_state_bytes"] <= 0 {
		t.Errorf("shard registry: state_bytes %v; want the open windows' bytes", shard["scrub_central_state_bytes"])
	}
	if _, ok := shard["scrub_central_join_pending"]; !ok {
		t.Error("shard registry lacks scrub_central_join_pending")
	}
	if _, ok := shard["scrub_central_batches_total"]; ok || len(shard) != 2 {
		t.Errorf("shard registry serves more than the state series: %v", shard)
	}
	if coord["scrub_coord_manifests_total"] != 4 {
		t.Errorf("coordinator counted %v manifests, want 4", coord["scrub_coord_manifests_total"])
	}
	if _, ok := c.StopQuery(1); !ok {
		t.Fatal("StopQuery: unknown query")
	}
	if after := series(shardReg); after["scrub_central_state_bytes"] != 0 {
		t.Errorf("shard gauges after the query stopped: %v", after)
	}
}
