package central

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scrub/internal/liveness"
	"scrub/internal/obs"
	"scrub/internal/transport"
	"scrub/internal/window"
)

// This file is the merge core of a ScrubCentral cluster — the paper's
// "small ScrubCentral cluster" (§8.1). Tuples route to shards by request
// id, so the request-identifier equi-join stays shard-local; the Merger
// is the only component that sees whole batches (as manifests), so
// stream liveness, the watermark, the replay hold and every window close
// live here, once for every deployment shape — a single node is a Merger
// over one shard. It reaches its shards only through ShardClient, which
// has two implementations: ShardedEngine's direct call into an in-process
// kernel, and internal/coord's RPC client to a shard process.

// ShardClient is one shard of a cluster as its merger sees it. The
// contract the merger builds on:
//
//   - Apply returns only after the shard absorbed the sub-batch, so a
//     manifest folded from Apply acks is observed after the state it
//     reports exists (applies happen-before their manifest). Its ack says
//     what the sub-batch cost in drops; a shard reports no running total.
//   - A non-nil error means part of the query's state is unreachable —
//     the shard died, rejected the caller (fencing), or sent a partial
//     that does not decode. The merger latches the query Degraded and
//     keeps closing windows from what it has; whatever the call returned
//     alongside the error is still intact and still merges.
//   - Down reports a latched failure: the shard is skipped without being
//     called. It never clears.
type ShardClient interface {
	// Start installs the query in driven mode (idempotent per query id).
	Start(qr *QueryRuntime) error
	// Apply folds one sub-batch into the shard. known is false when the
	// shard does not run the query (a batch racing its teardown).
	Apply(b transport.TupleBatch) (ack DrivenAck, known bool, err error)
	// Collect closes and returns the windows ending at or before bound;
	// none when the shard does not run the query.
	Collect(qr *QueryRuntime, bound int64) ([]window.Closed[PartialWindow], error)
	// Stop removes the query and returns its remaining windows.
	Stop(qr *QueryRuntime) ([]window.Closed[PartialWindow], error)
	// TuplesIn reports how many tuples the shard has absorbed for a query.
	TuplesIn(id uint64) (uint64, bool)
	Down() bool
}

// RouteScratch is the memory RouteToShards splits a batch in: the
// per-shard sub-batches. It belongs to the caller, who keeps it from
// batch to batch — it is resized, not reallocated — and never shares it
// between concurrent calls. The zero value is ready to use.
type RouteScratch struct {
	sub [][]transport.Tuple
}

// RouteToShards fans one batch out across the shards by request-id modulo
// shard count and folds the acks into a manifest. It is the one split
// function of the fabric: host-side routers, the coordinator's legacy
// whole-batch path and ShardedEngine all go through it. One shard is
// handed the batch's own tuple slice: nothing is copied, nothing wiped.
//
// No span filter runs here: the shard applies the filter itself
// (Engine.ApplyDriven) and its acks report HasTs/MaxTs over in-span
// tuples only, so the router stays plan-free. Every drop count on the
// manifest is a fact about this batch alone, kept nowhere but there:
// LateDelta and OverflowDelta sum what its sub-batches cost the shards,
// and RouteDrops counts its tuples that no live shard running the query
// applied.
func RouteToShards(b transport.TupleBatch, shards []ShardClient, sc *RouteScratch) transport.BatchManifest {
	// The manifest is the batch's header: the pooled tuples do not ride it.
	m := transport.BatchManifest{TupleBatch: b, RawTuples: uint64(len(b.Tuples))}
	m.Tuples = nil
	n := uint64(len(shards))
	if cap(sc.sub) < len(shards) {
		sc.sub = make([][]transport.Tuple, len(shards))
	}
	sub := sc.sub[:len(shards)]
	// Sub-batches alias the caller's pooled tuple memory only within this
	// call: every Apply below is synchronous, a shard copies (direct) or
	// encodes (RPC) what it keeps before returning, and the scratch then
	// lets go of the batch (cells wiped, a borrowed slice dropped).
	if n == 1 {
		//scrub:allowretain(synchronous fan-out; shards copy or encode kept tuples, and the scratch lets go of them, before RouteToShards returns)
		sub[0] = b.Tuples
	} else {
		for _, t := range b.Tuples {
			i := int(t.RequestID % n)
			//scrub:allowretain(synchronous fan-out; shards copy or encode kept tuples, and the scratch lets go of them, before RouteToShards returns)
			sub[i] = append(sub[i], t)
		}
	}
	for i, tuples := range sub {
		if len(tuples) == 0 {
			continue
		}
		if shards[i].Down() {
			m.RouteDrops += uint64(len(tuples))
			continue
		}
		ack, known, err := shards[i].Apply(transport.TupleBatch{
			QueryID: b.QueryID, HostID: b.HostID, TypeIdx: b.TypeIdx,
			Tuples: tuples, EffRate: b.EffRate,
		})
		if err != nil || !known {
			// A failed shard, or one not running the query (teardown race,
			// a fresh process at a pinned address), applied nothing.
			m.RouteDrops += uint64(len(tuples))
			continue
		}
		if ack.HasTs && (!m.HasTs || ack.MaxTs > m.MaxTs) {
			m.MaxTs = ack.MaxTs
		}
		m.HasTs = m.HasTs || ack.HasTs
		m.LateDelta += ack.LateDelta
		m.OverflowDelta += ack.OverflowDelta
	}
	if n == 1 {
		sub[0] = nil // the caller's array, not the scratch's: dropped, never wiped
	} else {
		// Wiped, not just truncated, for the next batch: a stale cell would
		// keep pointing into the caller's recycled memory.
		for i, tuples := range sub {
			clear(tuples)
			//scrub:allowretain(the scratch's own array, truncated: its cells were just wiped and hold nothing of the batch)
			sub[i] = tuples[:0]
		}
	}
	return m
}

// mergeQuery is what the merger keeps per query: the compiled plan, the
// emit hook, the stream table, the running stats, the replay hold and the
// query's shards. The close decisions and the emit stamping exist here
// and nowhere else; the stream fold is liveness.Table.Fold.
type mergeQuery struct {
	QueryRuntime
	emit EmitFunc

	// streams holds per-(host, type) stream leases, last-known counters,
	// and max event times. The query watermark is the minimum across
	// *live* streams: hosts whose shipping (or simulated clock) lags
	// never see their tuples declared late by a faster peer, while a
	// crashed or partitioned host is evicted on lease expiry instead of
	// freezing window emission forever.
	streams *liveness.Table
	// stats holds the window counters; the drop totals are read from the
	// streams when a window, Stats or Stop reports them.
	stats   transport.QueryStats
	tuplesC *obs.Counter // per-query ingest counter; nil without a registry
	lateC   *obs.Counter // per-query window-late drops; nil without a registry

	// Replay hold (Plan.Replay > 0): while open, no window closes at all —
	// neither watermark-driven nor wall-clock-forced — because replayed
	// history with old event times may still be in flight, and a window
	// that closes early would count that history as late instead of
	// folding it in. The hold releases when every stream that announced
	// replay has sent its ReplayDone marker (liveness.ReplaySettled) or at
	// replayDeadline — lease-clock, 2× the lease TTL past query start —
	// whichever comes first; the deadline bounds the damage of a dropped
	// done marker or of a query no recording host serves.
	replayHold     bool
	replayDeadline int64

	// installed flips true once every shard accepted the start. Until
	// then the entry only reserves the query id: batches and manifests
	// are dropped (their tuples never reached a started shard query) and
	// Stop reports the query unknown, so a rolled-back start never races
	// concurrent traffic folding state into it.
	installed bool

	// The query's shards, fixed at Start; shard i owns request ids ≡ i.
	shards []ShardClient
	// lostShard latches when a shard dies, fences the caller out or sends
	// a partial that does not decode: part of the query's state is
	// unreachable, so every window from then on is flagged Degraded
	// rather than silently incomplete.
	lostShard bool

	// pending holds merged-but-unflushed windows by start time.
	pending map[int64]*winState
	// barrier is the highest slide index, floor(bound/slide), a collect
	// barrier has covered (closeBefore).
	barrier int64
	// mergeDrops counts raw rows truncated when shard partials merged past
	// maxRawRows: the one drop no stream is charged for (lateDrops).
	mergeDrops uint64
}

// holding reports whether the replay hold is still open at leaseNow,
// releasing it when replay has settled or the deadline passed.
func (q *mergeQuery) holding(leaseNow int64) bool {
	if q.replayHold && (q.streams.ReplaySettled() || leaseNow >= q.replayDeadline) {
		q.replayHold = false
	}
	return q.replayHold
}

// advance is the close decision a folded batch calls for: it reports the
// watermark to close at, if any. A batch whose tuples were all filtered
// or late-dropped still advanced its stream's clock in the fold, or it
// would stall the watermark (and window closure for every stream) until
// the host's lease expired. A batch that releases the replay hold (its
// ReplayDone marker settled the last replaying stream) closes windows
// even when it carried no tuples of its own.
func (q *mergeQuery) advance(hasTs bool, nowN int64) (wm int64, ok bool) {
	wasHolding := q.replayHold
	if q.holding(nowN) || !(hasTs || wasHolding) {
		return 0, false
	}
	return q.streams.Watermark()
}

// sweep is the per-tick half of the close decision: expire leases, then
// check the hold. held means no window may close this tick — replayed
// history may still be in flight. Otherwise, when lease expiry evicted a
// stream or this tick released the hold, the watermark recomputed over
// the survivors is returned so windows a dead host was holding open close
// now instead of waiting out the force bound.
func (q *mergeQuery) sweep(leaseNow int64) (held bool, wm int64, moved bool) {
	// Expire before the hold check: evicting a replaying stream can
	// settle the replay (a dead host will never send its done marker).
	evicted := q.streams.Expire(leaseNow)
	wasHolding := q.replayHold
	if q.holding(leaseNow) {
		return true, 0, false
	}
	if len(evicted) == 0 && !wasHolding {
		return false, 0, false
	}
	wm, moved = q.streams.Watermark()
	return false, wm, moved
}

// emitWindow renders a closed window, stamps the deployment-level fields
// and hands it to the query's emit callback. A window emitted while any
// stream's lease is expired — or after part of the cluster was lost —
// carries the degraded marker and the full per-stream accounting, so the
// consumer knows exactly whose data is missing.
func (q *mergeQuery) emitWindow(met *centralMetrics, start, end int64, ws *winState) {
	var t0 time.Time
	if met != nil {
		t0 = time.Now()
	}
	r := q.streams.Report()
	rw := renderWindow(&q.plan, q.comp, start, end, ws)
	rw.Stats.HostDrops, rw.Stats.LateDrops = r.Drops, r.ShardDrops+q.mergeDrops
	rw.Degraded = q.lostShard || r.Evicted > 0
	rw.BudgetShed = r.Shed
	rw.Streams = r.Streams
	q.stats.Windows++
	q.stats.Rows += uint64(len(rw.Rows))
	if rw.Degraded {
		q.stats.DegradedWindows++
	}
	if rw.BudgetShed {
		q.stats.ShedWindows++
	}
	q.emit(rw)
	if met != nil {
		met.windows.Inc()
		if rw.Degraded {
			met.degraded.Inc()
		}
		if rw.BudgetShed {
			met.shed.Inc()
		}
		met.closeNs.Observe(float64(time.Since(t0)))
	}
}

// centralMetrics are the merger's series — ingest counted where whole
// batches or their manifests arrive, closes where windows are emitted, in
// every deployment shape. Nil without a registry: one pointer check.
type centralMetrics struct {
	batches  *obs.Counter
	tuples   *obs.Counter
	wmLag    *obs.Gauge
	windows  *obs.Counter
	degraded *obs.Counter
	shed     *obs.Counter
	closeNs  *obs.Histogram
}

func newCentralMetrics(reg *obs.Registry) *centralMetrics {
	if reg == nil {
		return nil
	}
	return &centralMetrics{
		batches:  reg.Counter("scrub_central_batches_total", "tuple batches ingested"),
		tuples:   reg.Counter("scrub_central_tuples_total", "tuples ingested"),
		wmLag:    reg.Gauge("scrub_central_watermark_lag_ns", "wall clock minus the query watermark at last ingest"),
		windows:  reg.Counter("scrub_central_windows_total", "result windows emitted"),
		degraded: reg.Counter("scrub_central_degraded_windows_total", "windows emitted with at least one evicted stream"),
		shed:     reg.Counter("scrub_central_shed_windows_total", "windows emitted with at least one budget-shed stream"),
		closeNs:  reg.Histogram("scrub_central_window_close_ns", "window render-and-emit latency in nanoseconds", obs.ExpBuckets(1024, 4, 12)),
	}
}

const queryLabel = "query"

// querySeries registers a query's ingest and window-late drop counters;
// nil without a registry.
func querySeries(reg *obs.Registry, id uint64) (tuples, late *obs.Counter) {
	if reg == nil {
		return nil, nil
	}
	l := obs.L(queryLabel, strconv.FormatUint(id, 10))
	return reg.Counter("scrub_central_query_tuples_total", "tuples ingested per query", l),
		reg.Counter("scrub_central_query_late_drops_total", "tuples dropped as late for their window, per query", l)
}

func dropQuerySeries(reg *obs.Registry, id uint64) {
	if reg != nil {
		l := obs.L(queryLabel, strconv.FormatUint(id, 10))
		reg.Unregister("scrub_central_query_tuples_total", l)
		reg.Unregister("scrub_central_query_late_drops_total", l)
	}
}

// Merger closes, merges and emits the windows of queries whose state lives
// in shards — one or many. Whole batches enter through Ingest (the merger
// routes them), already-routed ones through Observe (a host-side router
// did); both end in the same fold and the same close decision, batch for
// batch, so a result does not depend on how the deployment is cut.
type Merger struct {
	opt Options
	met *centralMetrics // nil when no registry configured

	mu      sync.Mutex
	queries map[uint64]*mergeQuery
	route   RouteScratch  // Ingest's split buffers, under mu
	merges  atomic.Uint64 // partial-window merges folded
}

// NewMerger returns a merger with no queries.
func NewMerger(opt Options) *Merger {
	opt.fillDefaults()
	return &Merger{opt: opt, met: newCentralMetrics(opt.Metrics), queries: make(map[uint64]*mergeQuery)}
}

// Install selects how Start treats its shards and lets the caller tie its
// own bookkeeping to the instant a query goes live.
type Install struct {
	// Resume re-adopts a query its shards may already run (a promoted
	// standby's takeover). It never rolls back: a shard that refuses or
	// died contributes degraded windows, exactly as if it had died
	// mid-query — at takeover, availability wins over atomicity. The
	// query starts with the Degraded latch set: the manifest gap during
	// failover lost stream and watermark accounting the new merger cannot
	// recover, so every window it emits is honestly flagged. The replay
	// hold runs to ReplayDeadline, the deadline the original start chose.
	Resume         bool
	ReplayDeadline int64
	// Installed, when set, runs under the merger's lock as the query
	// starts absorbing traffic, with the replay-hold deadline in force.
	Installed func(replayDeadline int64)
}

// Start installs a query over shards in two phases: the entry is
// published pending (reserving the id against duplicate submissions) but
// absorbs no traffic until every shard accepted the start — a batch
// racing the install would otherwise land on the shards already started
// and vanish on the rest, and a manifest would fold stream state into a
// query the rollback then deletes.
func (m *Merger) Start(qr *QueryRuntime, emit EmitFunc, shards []ShardClient, in Install) error {
	if emit == nil {
		return fmt.Errorf("central: nil emit")
	}
	id := qr.plan.QueryID
	q := &mergeQuery{
		QueryRuntime: *qr,
		emit:         emit,
		streams:      liveness.NewTable(m.opt.LeaseTTL),
		shards:       shards,
		lostShard:    in.Resume,
		pending:      make(map[int64]*winState),
		barrier:      math.MinInt64,
	}
	now := m.opt.Clock().UnixNano()
	if in.Resume {
		q.replayDeadline = in.ReplayDeadline
	} else if qr.plan.Replay > 0 {
		q.replayDeadline = now + 2*int64(m.opt.LeaseTTL)
	}
	q.replayHold = qr.plan.Replay > 0 && q.replayDeadline > now
	m.mu.Lock()
	if _, dup := m.queries[id]; dup {
		m.mu.Unlock()
		return fmt.Errorf("central: query %d already active", id)
	}
	m.queries[id] = q
	m.mu.Unlock()

	for i, sc := range shards {
		if in.Resume {
			if !sc.Down() {
				// A refusal latches the client down; collects degrade.
				_ = sc.Start(&q.QueryRuntime)
			}
			continue
		}
		if err := sc.Start(&q.QueryRuntime); err != nil {
			for _, started := range shards[:i] {
				// Best effort: a shard that cannot be reached keeps the
				// query until its own teardown.
				_, _ = started.Stop(&q.QueryRuntime)
			}
			m.mu.Lock()
			delete(m.queries, id)
			m.mu.Unlock()
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	q.installed = true
	q.tuplesC, q.lateC = querySeries(m.opt.Metrics, id)
	if in.Installed != nil {
		in.Installed(q.replayDeadline)
	}
	return nil
}

// live returns an installed query that has a stream type typeIdx.
func (m *Merger) live(id uint64, typeIdx uint8) *mergeQuery {
	q, ok := m.queries[id]
	if !ok || !q.installed || int(typeIdx) >= len(q.plan.Types) {
		return nil
	}
	return q
}

// Ingest routes a whole batch across the query's shards and observes the
// resulting manifest. It reports whether a running query absorbed it;
// batches for unknown queries are dropped silently (they race with query
// teardown by design).
func (m *Merger) Ingest(b transport.TupleBatch) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.live(b.QueryID, b.TypeIdx)
	if q == nil {
		return false
	}
	man := RouteToShards(b, q.shards, &m.route)
	m.observe(q, &man)
	return true
}

// Observe folds the manifest of a batch a router already applied to the
// shards, and reports whether a running query absorbed it.
func (m *Merger) Observe(man transport.BatchManifest) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.live(man.QueryID, man.TypeIdx)
	if q == nil {
		return false
	}
	m.observe(q, &man)
	return true
}

func (m *Merger) observe(q *mergeQuery, man *transport.BatchManifest) {
	nowN := m.opt.Clock().UnixNano()
	q.streams.Fold(man, nowN)
	if q.tuplesC != nil { // the query's series come in a pair (querySeries)
		q.tuplesC.Add(man.RawTuples)
		q.lateC.Add(man.LateDelta)
	}
	if m.met != nil {
		m.met.batches.Inc()
		m.met.tuples.Add(man.RawTuples)
	}
	if wm, ok := q.advance(man.HasTs, nowN); ok {
		if m.met != nil {
			m.met.wmLag.Set(nowN - wm)
		}
		slack, _ := q.plan.closeBounds()
		m.closeBefore(q, wm-int64(slack))
	}
}

// Tick closes windows by wall clock so idle streams still emit: every
// window ending at or before now − hold (Plan.closeBounds). It also
// expires stream leases, on the merger's own clock (nowNanos may be
// virtual time), and closes at once, at watermark − slack, whatever an
// evicted stream was holding open (mergeQuery.sweep). The query server
// calls it from a ticker.
func (m *Merger) Tick(nowNanos int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	leaseNow := m.opt.Clock().UnixNano()
	for _, q := range m.queries {
		if !q.installed {
			continue
		}
		held, wm, moved := q.sweep(leaseNow)
		if held {
			continue
		}
		slack, hold := q.plan.closeBounds()
		if moved {
			m.closeBefore(q, wm-int64(slack))
		}
		m.closeBefore(q, nowNanos-int64(hold))
	}
}

// closeBefore is a barrier across every shard: all windows ending at or
// before bound are pulled from all shards in ascending shard order (merge
// order must be deterministic for bit-identical results), merged, then
// rendered and emitted in start order. Because the same bound reaches
// every shard before any flush, a flushed window can never receive more
// tuples from a shard (they would be late there too).
//
// A barrier is a round trip to every shard under the merger's lock, inside
// the manifest round trip a host's shipper is blocked on, so it runs once
// per slide boundary, not once per manifest and tick: windows end on
// multiples of the slide, and after a barrier at bound B no shard holds or
// can still open a window ending at or before B and pending holds none, so
// a bound whose floor(bound/slide) is no higher closes nothing. What the
// skipped call would have found out — a dead shard's latch — the barrier
// before the next flush does (DESIGN.md §16.2).
func (m *Merger) closeBefore(q *mergeQuery, bound int64) {
	slide := int64(q.plan.Slide)
	idx := bound / slide
	if bound%slide < 0 {
		idx-- // floor, for bounds before the epoch
	}
	if idx <= q.barrier {
		return
	}
	q.barrier = idx
	for _, sc := range q.shards {
		if sc.Down() {
			q.lostShard = true
			continue
		}
		windows, err := sc.Collect(&q.QueryRuntime, bound)
		if err != nil {
			q.lostShard = true
		}
		m.merge(q, windows)
	}
	m.flush(q, bound)
}

func (m *Merger) merge(q *mergeQuery, windows []window.Closed[PartialWindow]) {
	for _, w := range windows {
		if dst, ok := q.pending[w.Start]; ok {
			q.mergeDrops += mergeWinStates(&q.plan, dst, w.State.ws)
			m.merges.Add(1)
		} else {
			q.pending[w.Start] = w.State.ws
		}
	}
}

// flush renders and emits pending windows ending at or before bound, in
// start order.
func (m *Merger) flush(q *mergeQuery, bound int64) {
	var starts []int64
	winSize := int64(q.plan.Window)
	for start := range q.pending {
		if start+winSize <= bound {
			starts = append(starts, start)
		}
	}
	slices.Sort(starts)
	for _, start := range starts {
		ws := q.pending[start]
		delete(q.pending, start)
		q.stats.TuplesIn += ws.tuples
		q.emitWindow(m.met, start, start+winSize, ws)
	}
}

// Stop drains every shard, merges and emits the remainder, and returns
// the final stats. A dead shard's drops were charged to their streams as
// its acks reported them; its window state is gone, which the Degraded
// flag reports. stopped, when set, runs under the merger's lock once the
// query is gone.
func (m *Merger) Stop(id uint64, stopped func()) (transport.QueryStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[id]
	if !ok || !q.installed {
		return transport.QueryStats{}, false
	}
	for _, sc := range q.shards {
		if sc.Down() {
			q.lostShard = true
			continue
		}
		windows, err := sc.Stop(&q.QueryRuntime)
		if err != nil {
			q.lostShard = true
		}
		m.merge(q, windows)
	}
	m.flush(q, int64(1)<<62-1)
	st := q.stats
	r := q.streams.Report()
	st.HostDrops, st.LateDrops = r.Drops, r.ShardDrops+q.mergeDrops
	delete(m.queries, id)
	dropQuerySeries(m.opt.Metrics, id)
	if stopped != nil {
		stopped()
	}
	return st, true
}

// Stats returns a query's running stats: the drop totals as of the call,
// and TuplesIn so far is what the shards have absorbed.
func (m *Merger) Stats(id uint64) (transport.QueryStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[id]
	if !ok || !q.installed {
		return transport.QueryStats{}, false
	}
	st := q.stats
	r := q.streams.Report()
	st.HostDrops, st.LateDrops = r.Drops, r.ShardDrops+q.mergeDrops
	var tuples uint64
	for _, sc := range q.shards {
		if sc.Down() {
			continue
		}
		if n, ok := sc.TuplesIn(id); ok {
			tuples += n
		}
	}
	st.TuplesIn = max(st.TuplesIn, tuples)
	return st, true
}

// Merges reports how many partial-window merges the merger has folded.
func (m *Merger) Merges() uint64 { return m.merges.Load() }

// EvictedStreams counts the streams currently evicted across all queries.
func (m *Merger) EvictedStreams() (n uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, q := range m.queries {
		n += uint32(q.streams.Report().Evicted)
	}
	return n
}
