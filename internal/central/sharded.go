package central

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scrub/internal/liveness"
	"scrub/internal/obs"
	"scrub/internal/transport"
	"scrub/internal/window"
)

// Executor is the central-execution surface the query server drives. Both
// the single-node Engine and the ShardedEngine satisfy it.
type Executor interface {
	StartQuery(p Plan, emit EmitFunc) error
	HandleBatch(b transport.TupleBatch)
	Tick(nowNanos int64)
	StopQuery(id uint64) (transport.QueryStats, bool)
	Stats(id uint64) (transport.QueryStats, bool)
	ActiveQueries() []uint64
}

var (
	_ Executor = (*Engine)(nil)
	_ Executor = (*ShardedEngine)(nil)
)

// shardLateness effectively disables event-time closing inside shards:
// the merger is the only component that closes windows, at barriers that
// cover every shard, so a window it flushes is complete by construction.
const shardLateness = 365 * 24 * time.Hour

// ShardedEngine is a multi-shard ScrubCentral — the paper's "small
// ScrubCentral cluster" (§8.1). Tuples route to shards by request id, so
// the request-identifier equi-join stays shard-local; group and raw
// window state is merged across shards at window close through the
// mergeable aggregators, then rendered exactly like the single-node
// engine (scale-up, bounds, HAVING, ORDER BY, LIMIT).
type ShardedEngine struct {
	opt    Options
	met    *centralMetrics // merger-level; shards keep private nil metrics
	shards []*Engine

	mu      sync.Mutex
	queries map[uint64]*shardedQuery
}

type shardedQuery struct {
	plan Plan // real lateness, post-defaults
	comp *compiled
	emit EmitFunc

	// streams holds the per-(host, type) leases and counters at the
	// merger — the only place that sees whole batches. Shards receive
	// tuples stripped of counters and never emit on their own, so stream
	// liveness lives here.
	streams *liveness.Table
	// pending holds merged-but-unflushed window partials by start time.
	pending map[int64]*winState
	stats   transport.QueryStats
	// mergeDrops counts raw rows truncated when shard partials merged past
	// MaxRawRows; folded into the query's late/overflow totals.
	mergeDrops uint64
	// stoppedShardDrops carries the shards' cumulative late/overflow drop
	// totals once StopQuery has torn the shard queries down: windows
	// flushed during shutdown can no longer poll dropsOf, and without this
	// their stats would silently forget every drop counted so far.
	stoppedShardDrops uint64
	tuplesC           *obs.Counter // per-query ingest counter; nil without a registry
	// Replay hold — the exact twin of queryState's (see engine.go): while
	// open, the merger neither collects nor flushes windows for the query.
	replayHold     bool
	replayDeadline int64
}

// NewShardedEngine creates an engine with n shards (n >= 1) and default
// Options.
func NewShardedEngine(n int) (*ShardedEngine, error) {
	return NewShardedEngineWith(n, Options{})
}

// NewShardedEngineWith creates an engine with n shards (n >= 1).
func NewShardedEngineWith(n int, opt Options) (*ShardedEngine, error) {
	if n < 1 {
		return nil, fmt.Errorf("central: shard count must be >= 1, got %d", n)
	}
	opt.fillDefaults()
	se := &ShardedEngine{opt: opt, met: newCentralMetrics(opt.Metrics), queries: make(map[uint64]*shardedQuery)}
	// Shards must not register series of their own — whole-batch ingest
	// accounting lives at the merger, and shard-level registration would
	// double-count it under the same names. The open windows live in the
	// shards, though, so all of them charge the registry's state gauges.
	shardOpt := opt
	shardOpt.Metrics = nil
	state := newStateGauges(opt.Metrics)
	for i := 0; i < n; i++ {
		sh := NewEngineWith(shardOpt)
		sh.state = state
		se.shards = append(se.shards, sh)
	}
	return se, nil
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// StartQuery implements Executor.
func (se *ShardedEngine) StartQuery(p Plan, emit EmitFunc) error {
	if emit == nil {
		return fmt.Errorf("central: nil emit")
	}
	if err := p.fillDefaults(); err != nil {
		return err
	}
	comp, err := compile(&p)
	if err != nil {
		return fmt.Errorf("central: compile plan: %w", err)
	}
	if err := p.checkAggs(); err != nil {
		return err
	}

	se.mu.Lock()
	if _, dup := se.queries[p.QueryID]; dup {
		se.mu.Unlock()
		return fmt.Errorf("central: query %d already active", p.QueryID)
	}
	sq := &shardedQuery{
		plan: p, comp: comp, emit: emit,
		streams: liveness.NewTable(se.opt.LeaseTTL),
		pending: make(map[int64]*winState),
		tuplesC: se.met.queryTuples(p.QueryID),
	}
	if p.Replay > 0 {
		sq.replayHold = true
		sq.replayDeadline = se.opt.Clock().UnixNano() + 2*int64(se.opt.LeaseTTL)
	}
	se.queries[p.QueryID] = sq
	se.mu.Unlock()

	for i, sh := range se.shards {
		sp := p
		sp.Lateness = shardLateness
		if err := sh.startQueryDriven(sp); err != nil {
			// Roll back the shards already started.
			for j := 0; j < i; j++ {
				se.shards[j].stopQueryDriven(p.QueryID)
			}
			se.mu.Lock()
			delete(se.queries, p.QueryID)
			se.mu.Unlock()
			return err
		}
	}
	return nil
}

// HandleBatch implements Executor: counters stay at the merger; tuples
// split across shards by request id. The merger mirrors the single-node
// engine's event-time semantics exactly — span filtering, watermark
// advancement on the max in-span event time, per-stream late-drop
// attribution, and window closing as the watermark passes — so the two
// executors agree batch for batch, not just at wall-clock ticks.
func (se *ShardedEngine) HandleBatch(b transport.TupleBatch) {
	se.mu.Lock()
	defer se.mu.Unlock()
	sq, ok := se.queries[b.QueryID]
	if !ok {
		return
	}
	if int(b.TypeIdx) >= len(sq.plan.Types) {
		return
	}
	nowN := se.opt.Clock().UnixNano()
	st, _ := sq.streams.Touch(
		liveness.Key{Host: b.HostID, TypeIdx: b.TypeIdx},
		nowN,
	)
	// Counters are cumulative; max() keeps chaos-induced reorder or
	// duplication from regressing them.
	st.Matched = max(st.Matched, b.MatchedTotal)
	st.Sampled = max(st.Sampled, b.SampledTotal)
	st.Drops = max(st.Drops, b.QueueDrops)
	st.FoldGovernor(b.EffRate, b.BudgetShed, b.CPUNs, b.ShipBytes)
	sq.streams.FoldReplay(st, b.ReplayEpoch, b.ReplayDone)
	if se.met != nil {
		se.met.batches.Inc()
		se.met.tuples.Add(uint64(len(b.Tuples)))
	}
	if sq.tuplesC != nil {
		sq.tuplesC.Add(uint64(len(b.Tuples)))
	}
	// Mirror Engine.HandleBatch: a tuple-free batch is worth processing
	// only when its ReplayDone marker just released the replay hold.
	wasHolding := sq.replayHold
	holding := replayHolding(&sq.replayHold, sq.replayDeadline, sq.streams, nowN)
	released := wasHolding && !holding
	if len(b.Tuples) == 0 && !released {
		return
	}
	n := uint64(len(se.shards))
	sub := make([][]transport.Tuple, len(se.shards))
	dataStart := sq.plan.DataStartNanos()
	var maxTs int64
	hasTs := false
	for _, t := range b.Tuples {
		// Out-of-span tuples neither reach a shard nor advance the
		// stream's event clock (same filter as Engine.HandleBatch).
		if dataStart != 0 && t.TsNanos < dataStart {
			continue
		}
		if sq.plan.EndNanos != 0 && t.TsNanos >= sq.plan.EndNanos {
			continue
		}
		if !hasTs || t.TsNanos > maxTs {
			maxTs = t.TsNanos
			hasTs = true
		}
		i := int(t.RequestID % n)
		// The sub-batches alias the caller's pooled tuple memory, but only
		// within this call: the fan-out below is synchronous and each shard
		// engine deep-copies whatever it keeps (see Engine.processTuple).
		//scrub:allowretain(synchronous fan-out; shards deep-copy kept tuples before HandleBatch returns)
		sub[i] = append(sub[i], t)
	}
	lateBefore := se.winLateLocked(b.QueryID)
	for i, tuples := range sub {
		if len(tuples) == 0 {
			continue
		}
		se.shards[i].HandleBatch(transport.TupleBatch{
			QueryID: b.QueryID, HostID: b.HostID, TypeIdx: b.TypeIdx,
			Tuples: tuples,
		})
	}
	st.LateDrops += se.winLateLocked(b.QueryID) - lateBefore
	if hasTs {
		st.ObserveTs(maxTs)
	}
	if !holding && (hasTs || released) {
		if wm, wok := sq.streams.Watermark(); wok {
			bound := wm - int64(sq.plan.Lateness)
			se.collectLocked(b.QueryID, sq, bound)
			se.flushLocked(sq, bound)
		}
	}
}

// winLateLocked sums the shards' window-late drop counters for a query.
func (se *ShardedEngine) winLateLocked(id uint64) uint64 {
	var late uint64
	for _, sh := range se.shards {
		if l, _, ok := sh.dropsOf(id); ok {
			late += l
		}
	}
	return late
}

// Tick implements Executor: a barrier across every shard. All windows
// ending at or before now − lateness are pulled from all shards, merged,
// rendered and emitted in start order. Because the same bound reaches
// every shard before any flush, a flushed window can never receive more
// tuples from a shard (they would be late there too).
func (se *ShardedEngine) Tick(nowNanos int64) {
	se.mu.Lock()
	defer se.mu.Unlock()
	leaseNow := se.opt.Clock().UnixNano()
	for id, sq := range se.queries {
		// Mirror Engine.Tick: expire before the hold check (evicting a
		// replaying stream can settle the replay), skip every close while
		// the hold is open, and when lease expiry evicts a stream — or
		// this tick released the hold — close at the watermark recomputed
		// over the survivors right away.
		evicted := sq.streams.Expire(leaseNow)
		wasHolding := sq.replayHold
		if replayHolding(&sq.replayHold, sq.replayDeadline, sq.streams, leaseNow) {
			continue
		}
		released := wasHolding && !sq.replayHold
		if len(evicted) > 0 || released {
			if wm, ok := sq.streams.Watermark(); ok {
				b := wm - int64(sq.plan.Lateness)
				se.collectLocked(id, sq, b)
				se.flushLocked(sq, b)
			}
		}
		bound := nowNanos - int64(sq.plan.Lateness)
		se.collectLocked(id, sq, bound)
		se.flushLocked(sq, bound)
	}
}

// collectLocked pulls closed windows from every shard and merges them
// into the query's pending set.
func (se *ShardedEngine) collectLocked(id uint64, sq *shardedQuery, bound int64) {
	for _, sh := range se.shards {
		for _, closed := range sh.forceCloseQuery(id, bound) {
			se.mergePendingLocked(sq, closed)
		}
	}
}

func (se *ShardedEngine) mergePendingLocked(sq *shardedQuery, closed window.Closed[*winState]) {
	if dst, ok := sq.pending[closed.Start]; ok {
		sq.mergeDrops += mergeWinStates(&sq.plan, dst, closed.State)
	} else {
		sq.pending[closed.Start] = closed.State
	}
}

// flushLocked renders and emits pending windows ending at or before
// bound, in start order.
func (se *ShardedEngine) flushLocked(sq *shardedQuery, bound int64) {
	var starts []int64
	winSize := int64(sq.plan.Window)
	for start := range sq.pending {
		if start+winSize <= bound {
			starts = append(starts, start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, start := range starts {
		se.emitLocked(sq, start, sq.pending[start])
		delete(sq.pending, start)
	}
}

func (se *ShardedEngine) emitLocked(sq *shardedQuery, start int64, ws *winState) {
	var t0 time.Time
	if se.met != nil {
		t0 = time.Now()
	}
	rw := renderWindow(&sq.plan, sq.comp, start, start+int64(sq.plan.Window), ws,
		sq.streams.RatesByHost(sq.plan.SampleEvents))
	hostDrops := sq.streams.HostDrops()
	lateDrops := sq.mergeDrops + sq.stoppedShardDrops
	for _, sh := range se.shards {
		if late, overflow, ok := sh.dropsOf(sq.plan.QueryID); ok {
			lateDrops += late + overflow
		}
	}
	rw.Stats.HostDrops = hostDrops
	rw.Stats.LateDrops = lateDrops
	rw.Degraded = sq.streams.AnyEvicted()
	rw.BudgetShed = sq.streams.AnyShed()
	rw.Streams = sq.streams.Snapshot()
	if rw.Degraded {
		sq.stats.DegradedWindows++
	}
	if rw.BudgetShed {
		sq.stats.ShedWindows++
	}
	sq.stats.Windows++
	sq.stats.Rows += uint64(len(rw.Rows))
	sq.stats.TuplesIn += ws.tuples
	sq.stats.HostDrops = hostDrops
	sq.stats.LateDrops = lateDrops
	sq.emit(rw)
	if se.met != nil {
		se.met.windows.Inc()
		if rw.Degraded {
			se.met.degraded.Inc()
		}
		if rw.BudgetShed {
			se.met.shed.Inc()
		}
		se.met.closeNs.Observe(float64(time.Since(t0)))
	}
}

// StopQuery implements Executor: drains every shard, merges, emits the
// remainder, and returns the final stats.
func (se *ShardedEngine) StopQuery(id uint64) (transport.QueryStats, bool) {
	se.mu.Lock()
	defer se.mu.Unlock()
	sq, ok := se.queries[id]
	if !ok {
		return transport.QueryStats{}, false
	}
	var lateDrops uint64
	for _, sh := range se.shards {
		partials, drops, ok := sh.stopQueryDriven(id)
		if !ok {
			continue
		}
		lateDrops += drops
		for _, closed := range partials {
			se.mergePendingLocked(sq, closed)
		}
	}
	// The shard queries are gone now; windows flushed below must inherit
	// their cumulative drop totals rather than polling dropsOf.
	sq.stoppedShardDrops = lateDrops
	se.flushLocked(sq, int64(1)<<62-1)
	sq.stats.LateDrops = lateDrops + sq.mergeDrops
	sq.stats.HostDrops = sq.streams.HostDrops()
	delete(se.queries, id)
	se.met.dropQuery(id)
	return sq.stats, true
}

// Stats implements Executor.
func (se *ShardedEngine) Stats(id uint64) (transport.QueryStats, bool) {
	se.mu.Lock()
	defer se.mu.Unlock()
	sq, ok := se.queries[id]
	if !ok {
		return transport.QueryStats{}, false
	}
	// TuplesIn so far is what the shards have absorbed.
	st := sq.stats
	var tuples uint64
	for _, sh := range se.shards {
		if s, ok := sh.Stats(id); ok {
			tuples += s.TuplesIn
		}
	}
	if tuples > st.TuplesIn {
		st.TuplesIn = tuples
	}
	return st, true
}

// ActiveQueries implements Executor.
func (se *ShardedEngine) ActiveQueries() []uint64 {
	se.mu.Lock()
	defer se.mu.Unlock()
	out := make([]uint64, 0, len(se.queries))
	for id := range se.queries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
