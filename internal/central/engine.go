package central

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"scrub/internal/agg"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/liveness"
	"scrub/internal/obs"
	"scrub/internal/sampling"
	"scrub/internal/transport"
	"scrub/internal/window"
)

// EmitFunc receives each closed window's results. It is called with the
// engine lock held; implementations must be fast (enqueue and return).
type EmitFunc func(transport.ResultWindow)

// Options tunes an engine's failure-domain behavior. The zero value is
// production-ready.
type Options struct {
	// LeaseTTL is the per-stream liveness lease timeout: a (host, type)
	// stream that neither ships a batch nor heartbeats for this long is
	// evicted from the query watermark so windows keep closing without
	// it. <= 0 selects liveness.DefaultTTL.
	LeaseTTL time.Duration
	// Clock substitutes time.Now for lease bookkeeping (tests). Lease
	// time is deliberately wall-clock, independent of event time, so
	// virtual-time simulations cannot spuriously evict healthy streams.
	Clock func() time.Time
	// Metrics, when non-nil, registers the engine's scrub_central_*
	// series, including a per-query tuple counter added at StartQuery and
	// removed at StopQuery.
	Metrics *obs.Registry
}

// centralMetrics bundles the engine's registered series; a nil
// *centralMetrics (no registry configured) costs one pointer check per
// batch.
type centralMetrics struct {
	reg      *obs.Registry
	batches  *obs.Counter
	tuples   *obs.Counter
	windows  *obs.Counter
	degraded *obs.Counter
	shed     *obs.Counter
	closeNs  *obs.Histogram
	wmLag    *obs.Gauge
}

// stateGauges are the two series that say what the open windows hold.
// They are kept apart from centralMetrics because a ShardedEngine's
// shards, which register nothing else (the merger counts ingest), charge
// their windows to the merger's pair. Only a central registry carries
// them: on the agent path even a few always-live series are a measurable
// share of the agent's footprint.
type stateGauges struct {
	joinPending *obs.Gauge
	bytes       *obs.Gauge
}

func newStateGauges(reg *obs.Registry) *stateGauges {
	if reg == nil {
		return nil
	}
	return &stateGauges{
		joinPending: reg.Gauge("scrub_central_join_pending", "tuples buffered awaiting their join partner"),
		bytes:       reg.Gauge("scrub_central_state_bytes", "capacity in bytes of the open windows' slabs (value arena, join-pending, aggregators, raw rows)"),
	}
}

func newCentralMetrics(reg *obs.Registry) *centralMetrics {
	if reg == nil {
		return nil
	}
	return &centralMetrics{
		reg:      reg,
		batches:  reg.Counter("scrub_central_batches_total", "tuple batches ingested"),
		tuples:   reg.Counter("scrub_central_tuples_total", "tuples ingested"),
		windows:  reg.Counter("scrub_central_windows_total", "result windows emitted"),
		degraded: reg.Counter("scrub_central_degraded_windows_total", "windows emitted with at least one evicted stream"),
		shed:     reg.Counter("scrub_central_shed_windows_total", "windows emitted with at least one budget-shed stream"),
		closeNs:  reg.Histogram("scrub_central_window_close_ns", "window render-and-emit latency in nanoseconds", obs.ExpBuckets(1024, 4, 12)),
		wmLag:    reg.Gauge("scrub_central_watermark_lag_ns", "wall clock minus the query watermark at last ingest"),
	}
}

const queryLabel = "query"

func (m *centralMetrics) queryTuples(id uint64) *obs.Counter {
	if m == nil {
		return nil
	}
	return m.reg.Counter("scrub_central_query_tuples_total",
		"tuples ingested per query", obs.L(queryLabel, strconv.FormatUint(id, 10)))
}

func (m *centralMetrics) dropQuery(id uint64) {
	if m == nil {
		return
	}
	m.reg.Unregister("scrub_central_query_tuples_total", obs.L(queryLabel, strconv.FormatUint(id, 10)))
}

func (o *Options) fillDefaults() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = liveness.DefaultTTL
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// Engine executes the central half of Scrub queries: windowing, the
// request-id equi-join, grouping, aggregation, sampling scale-up, and
// error bounds.
type Engine struct {
	opt     Options
	met     *centralMetrics // nil when no registry configured
	state   *stateGauges    // nil when no registry configured
	mu      sync.Mutex
	queries map[uint64]*queryState
}

// NewEngine returns an empty engine with default Options.
func NewEngine() *Engine { return NewEngineWith(Options{}) }

// NewEngineWith returns an empty engine with the given Options.
func NewEngineWith(opt Options) *Engine {
	opt.fillDefaults()
	return &Engine{
		opt: opt, met: newCentralMetrics(opt.Metrics), state: newStateGauges(opt.Metrics),
		queries: make(map[uint64]*queryState),
	}
}

type queryState struct {
	plan Plan
	comp *compiled
	win  *window.SlidingManager[*winState]
	emit EmitFunc

	// streams holds per-(host, type) stream leases, last-known counters,
	// and max event times. The query watermark is the minimum across
	// *live* streams: hosts whose shipping (or simulated clock) lags
	// never see their tuples declared late by a faster peer, while a
	// crashed or partitioned host is evicted on lease expiry instead of
	// freezing window emission forever.
	streams  *liveness.Table
	stats    transport.QueryStats
	tuplesC  *obs.Counter // per-query ingest counter; nil without a registry
	overflow uint64       // raw-row + join-pending drops
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
	// Per-query scratch for the apply path (the engine lock is held
	// throughout a batch, so one set per query suffices): the rows handed
	// to the evaluators, the group key's values and its encoded form. Only
	// a tuple that opens a new group copies the key out of them.
	side       sideRow
	join       joinRow
	scratchKey []event.Value
	keyBuf     []byte
}

// StartQuery installs a central query object.
func (e *Engine) StartQuery(p Plan, emit EmitFunc) error {
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
	qs := &queryState{
		plan:       p,
		comp:       comp,
		emit:       emit,
		streams:    liveness.NewTable(e.opt.LeaseTTL),
		side:       sideRow{c: comp, types: p.Types},
		join:       joinRow{c: comp, types: p.Types},
		scratchKey: make([]event.Value, len(comp.groupEvals)),
	}
	qs.win, err = window.NewSlidingManager(p.Window, p.Slide, p.Lateness, func(start, end int64) *winState {
		return newWinState(&qs.plan)
	})
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.queries[p.QueryID]; dup {
		return fmt.Errorf("central: query %d already active", p.QueryID)
	}
	qs.tuplesC = e.met.queryTuples(p.QueryID)
	if p.Replay > 0 {
		qs.replayHold = true
		qs.replayDeadline = e.opt.Clock().UnixNano() + 2*int64(e.opt.LeaseTTL)
	}
	e.queries[p.QueryID] = qs
	return nil
}

// replayHolding reports whether a query's replay hold is still open at
// leaseNow, releasing it when replay has settled or the deadline passed.
// One function shared by both executors so their close decisions stay
// bit-identical.
func replayHolding(hold *bool, deadline int64, streams *liveness.Table, leaseNow int64) bool {
	if *hold && (streams.ReplaySettled() || leaseNow >= deadline) {
		*hold = false
	}
	return *hold
}

// ActiveQueries returns the installed query ids.
func (e *Engine) ActiveQueries() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]uint64, 0, len(e.queries))
	for id := range e.queries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HandleBatch folds a host's tuple batch into the query's window state.
// Batches for unknown queries are dropped silently (they race with query
// teardown by design). Every batch — counter-only heartbeats included —
// renews the stream's liveness lease; a batch from an evicted stream
// re-admits it, and any of its tuples whose windows closed in the
// meantime are counted as late against that stream, never applied to
// closed results.
func (e *Engine) HandleBatch(b transport.TupleBatch) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[b.QueryID]
	if !ok {
		return
	}
	if int(b.TypeIdx) >= len(qs.plan.Types) {
		return
	}
	key := liveness.Key{Host: b.HostID, TypeIdx: b.TypeIdx}
	nowN := e.opt.Clock().UnixNano()
	st, _ := qs.streams.Touch(key, nowN)
	// Counters are cumulative; max() keeps a delayed or duplicated batch
	// (chaos, retransmits) from regressing them.
	st.Matched = max(st.Matched, b.MatchedTotal)
	st.Sampled = max(st.Sampled, b.SampledTotal)
	st.Drops = max(st.Drops, b.QueueDrops)
	st.FoldGovernor(b.EffRate, b.BudgetShed, b.CPUNs, b.ShipBytes)
	qs.streams.FoldReplay(st, b.ReplayEpoch, b.ReplayDone)
	if e.met != nil {
		e.met.batches.Inc()
		e.met.tuples.Add(uint64(len(b.Tuples)))
	}
	if qs.tuplesC != nil {
		qs.tuplesC.Add(uint64(len(b.Tuples)))
	}

	lateBefore := qs.win.LateDrops()
	maxTs, hasTs := e.applyTuples(qs, &b)
	st.LateDrops += qs.win.LateDrops() - lateBefore
	if hasTs {
		st.ObserveTs(maxTs)
	}
	// A batch that releases the replay hold (its ReplayDone marker
	// settled the last replaying stream) closes windows even when it
	// carried no tuples of its own.
	wasHolding := qs.replayHold
	holding := replayHolding(&qs.replayHold, qs.replayDeadline, qs.streams, nowN)
	released := wasHolding && !holding
	if !holding && (hasTs || released) {
		if wm, ok := qs.streams.Watermark(); ok {
			if e.met != nil {
				e.met.wmLag.Set(nowN - wm)
			}
			for _, closed := range e.closed(qs.win.Observe(wm)) {
				e.emitWindow(qs, closed)
			}
		}
	}
}

// applyTuples folds a batch's in-span tuples into every window covering
// them and reports the batch's max in-span event time. It is the apply
// path proper, shared by HandleBatch and ApplyDriven; over windows and
// groups that are already open it allocates nothing.
func (e *Engine) applyTuples(qs *queryState, b *transport.TupleBatch) (maxTs int64, hasTs bool) {
	dataStart := qs.plan.DataStartNanos()
	for i := range b.Tuples {
		t := &b.Tuples[i]
		if dataStart != 0 && t.TsNanos < dataStart {
			continue
		}
		if qs.plan.EndNanos != 0 && t.TsNanos >= qs.plan.EndNanos {
			continue
		}
		for _, ws := range qs.win.GetAll(t.TsNanos) {
			e.processTuple(qs, ws, b.HostID, b.TypeIdx, t)
		}
		if !hasTs || t.TsNanos > maxTs {
			maxTs = t.TsNanos
			hasTs = true
		}
	}
	// The scratch rows must not keep pointing into the batch's pooled
	// memory once the call returns (host.Sink contract).
	qs.side.t, qs.join.sides = tupleView{}, [2]tupleView{}
	return maxTs, hasTs
}

// closed takes windows that have just left a query's manager off the
// state gauges and passes them on. Every close path goes through it —
// emitting or driven — so neither gauge can leak upward.
func (e *Engine) closed(cs []window.Closed[*winState]) []window.Closed[*winState] {
	if e.state != nil {
		for _, c := range cs {
			e.state.joinPending.Add(-int64(c.State.pendN))
			e.state.bytes.Add(-c.State.charged)
		}
	}
	return cs
}

// charge brings the state-bytes gauge up to date after ws's slabs may
// have grown: one comparison per appended item, one atomic per growth.
func (e *Engine) charge(ws *winState) {
	if e.state == nil {
		return
	}
	if n := ws.slabBytes(); n != ws.charged {
		e.state.bytes.Add(n - ws.charged)
		ws.charged = n
	}
}

// processTuple routes one in-window tuple through join (if any), the
// residual predicate, and accumulation.
func (e *Engine) processTuple(qs *queryState, ws *winState, host string, typeIdx uint8, t *transport.Tuple) {
	ws.tuples++
	qs.stats.TuplesIn++
	ws.touch(host)

	if !qs.plan.IsJoin() {
		row := &qs.side
		row.typeIdx, row.t = int(typeIdx), viewOf(t)
		if qs.comp.centralPred != nil && !qs.comp.centralPred(row) {
			return
		}
		e.accumulate(qs, ws, row, host)
		return
	}

	// Equi-join on the request identifier, within the window: pair the
	// tuple with everything the other side has buffered under its id, in
	// arrival order, then buffer it for the other side's later arrivals.
	side, other := int(typeIdx), 1-int(typeIdx)
	ci, known := ws.pending[t.RequestID]
	if known {
		row := &qs.join
		row.sides[side] = viewOf(t)
		w := len(qs.plan.Columns[other])
		for link := ws.cells.At(ci).head[other]; link != 0; {
			pt := ws.pend.At(link - 1)
			link = pt.next
			row.sides[other] = tupleView{req: t.RequestID, ts: pt.ts, vals: ws.arena.Run(pt.valOff, w)}
			if qs.comp.centralPred != nil && !qs.comp.centralPred(row) {
				continue
			}
			e.accumulate(qs, ws, row, host)
		}
	}
	if !e.buffer(qs, ws, ci, known, side, t) {
		qs.overflow++
	}
}

// buffer keeps a join tuple for the other side's later arrivals: its
// event time in the pend slab, its columns in the arena, linked at the
// tail of its request id's chain for its side. It reports false when the
// window is at MaxJoinPending (or a slab at the end of its index space).
func (e *Engine) buffer(qs *queryState, ws *winState, ci uint32, known bool, side int, t *transport.Tuple) bool {
	if ws.pendN >= qs.plan.MaxJoinPending {
		return false
	}
	valOff, cols, ok := ws.arena.Alloc(len(qs.plan.Columns[side]))
	if !ok {
		return false
	}
	at, ok := ws.pend.Push(pendTuple{ts: t.TsNanos, valOff: valOff})
	if !ok {
		return false
	}
	if !known {
		if ci, ok = ws.cells.Push(pendCell{}); !ok {
			return false
		}
		ws.pending[t.RequestID] = ci
	}
	// The batch's Values arrays live in host-agent chunk memory that is
	// recycled once SendBatch returns (see host.Sink); what the window
	// keeps of a tuple is copied into its arena. A tuple shorter than its
	// plan's column list leaves the rest of the run Invalid, which is what
	// a lookup past its end evaluates to anyway.
	copy(cols, t.Values)
	cell, link := ws.cells.At(ci), at+1
	if tail := cell.tail[side]; tail != 0 {
		ws.pend.At(tail - 1).next = link
	} else {
		cell.head[side] = link
	}
	cell.tail[side] = link
	ws.pendN++
	if e.state != nil {
		e.state.joinPending.Add(1)
		e.charge(ws)
	}
	return true
}

// accumulate folds a (possibly joined) row into the window's groups, or
// collects it as a raw result row for non-aggregate queries.
func (e *Engine) accumulate(qs *queryState, ws *winState, row expr.Row, host string) {
	p, c := &qs.plan, qs.comp
	if !p.HasAgg() && !p.Grouped() {
		if ws.rawN >= p.MaxRawRows {
			qs.overflow++
			return
		}
		_, out, ok := ws.raw.Alloc(len(c.selectEvals))
		if !ok {
			qs.overflow++
			return
		}
		for i, ev := range c.selectEvals {
			out[i] = ev(row)
		}
		ws.rawN++
		e.charge(ws)
		return
	}

	// The key is encoded into the query's buffer and looked up with the
	// conversion the compiler elides; a string is made only for a key the
	// window has not seen.
	keyVals, buf := qs.scratchKey, qs.keyBuf[:0]
	for i, ev := range c.groupEvals {
		keyVals[i] = ev(row)
		buf = event.AppendValue(buf, keyVals[i])
	}
	qs.keyBuf = buf
	g, ok := ws.groups[string(buf)]
	if !ok {
		if g, ok = ws.openGroup(p, string(buf), keyVals); !ok {
			qs.overflow++
			return
		}
		e.charge(ws)
	}
	for i, ag := range ws.aggsOf(g, len(p.Aggs)) {
		if c.aggArgEvals[i] == nil {
			ag.Add(event.Bool(true)) // COUNT(*): any valid value
		} else {
			ag.Add(c.aggArgEvals[i](row))
		}
	}

	// Error-bound moments: ungrouped scalable aggregates. Collected even
	// at plan rate 1, because the host-side budget governor can lower a
	// host's effective sampling rate mid-query — and by the time the
	// first deviating batch announces that, the window's earlier tuples
	// are gone. Grouped queries have no moment tracking (bounds are
	// per-column, not per-group); their degradation is surfaced via
	// per-stream EffRate instead.
	if !p.Grouped() && len(p.Aggs) > 0 {
		moments := ws.momentsOf(host, len(p.Aggs))
		for i, a := range p.Aggs {
			if !a.Spec.Scalable() {
				continue
			}
			if c.aggArgEvals[i] == nil {
				moments[i].Add(1) // COUNT(*): reading of 1
			} else if f, ok := c.aggArgEvals[i](row).AsFloat(); ok {
				moments[i].Add(f)
			}
		}
	}
}

// renderWindow turns a closed window's accumulated state into result
// rows: group ordering, aggregate rendering with Horvitz-Thompson
// scale-up, HAVING, error bounds, ORDER BY and LIMIT. Shared by the
// single-node engine and the sharded merger.
//
// rates, when non-nil, maps hosts to governor-degraded effective
// event-sampling rates (liveness.Table.RatesByHost): the window is then
// approximate even at plan rate 1, and ungrouped scalable aggregates are
// re-estimated from the per-host moments with each host's own rate
// (Eq. 1–3) instead of the uniform plan-rate scale-up, so budget
// downsampling widens the bounds rather than silently skewing values.
func renderWindow(p *Plan, comp *compiled, start, end int64, ws *winState, rates map[string]float64) transport.ResultWindow {
	rw := transport.ResultWindow{
		QueryID:     p.QueryID,
		WindowStart: start,
		WindowEnd:   end,
		Columns:     p.ColumnLabels(),
	}

	factor := p.scaleFactor()
	rw.Approx = factor != 1 || len(rates) > 0

	switch {
	case !p.HasAgg() && !p.Grouped():
		rw.Rows = ws.rawRows(len(comp.selectEvals))

	default:
		// Deterministic group order: sort by encoded key.
		keys := make([]string, 0, len(ws.groups))
		for k := range ws.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		// An ungrouped aggregate query emits one row even for an empty
		// window (COUNT(*) = 0), matching SQL semantics.
		if len(keys) == 0 && p.HasAgg() && !p.Grouped() {
			if _, ok := ws.openGroup(p, "", nil); ok {
				keys = append(keys, "")
			}
		}
		var bounds []float64
		var sums map[int]float64
		if rw.Approx && !p.Grouped() {
			bounds, sums = computeBounds(p, comp, ws, rates)
		}
		// One evaluation context and one backing array serve every group:
		// the evaluators copy what they read, and a row that fails HAVING
		// gives its slot back.
		width := len(comp.selectEvals)
		row := &resultRow{groupBy: p.GroupBy, aggVals: make([]event.Value, len(p.Aggs))}
		out := make([]event.Value, 0, len(keys)*width)
		for _, k := range keys {
			g := ws.groups[k]
			row.keyVals = ws.keyVals(g, len(p.GroupBy))
			for i, ag := range ws.aggsOf(g, len(p.Aggs)) {
				v := ag.Result()
				if p.Aggs[i].Spec.Scalable() {
					if est, ok := sums[i]; ok {
						v = substituteEstimate(v, est)
					} else {
						v = agg.ScaleResult(v, factor)
					}
				}
				row.aggVals[i] = v
			}
			if comp.havingPred != nil && !comp.havingPred(row) {
				continue
			}
			n := len(out)
			for _, ev := range comp.selectEvals {
				out = append(out, ev(row))
			}
			rw.Rows = append(rw.Rows, out[n:n+width:n+width])
		}
		rw.ErrBounds = bounds
	}
	orderAndLimit(p, &rw)
	rw.Stats.TuplesIn = ws.tuples
	rw.Stats.HostsReporting = uint32(len(ws.hosts))
	return rw
}

// emitWindow renders a closed window into a ResultWindow and hands it to
// the query's emit callback. A window emitted while any stream's lease
// is expired carries the degraded marker and the full per-stream
// accounting, so the consumer knows exactly whose data is missing.
func (e *Engine) emitWindow(qs *queryState, closed window.Closed[*winState]) {
	var t0 time.Time
	if e.met != nil {
		t0 = time.Now()
	}
	rw := renderWindow(&qs.plan, qs.comp, closed.Start, closed.End, closed.State,
		qs.streams.RatesByHost(qs.plan.SampleEvents))

	hostDrops := qs.streams.HostDrops()
	rw.Stats.HostDrops = hostDrops
	rw.Stats.LateDrops = qs.win.LateDrops() + qs.overflow
	rw.Degraded = qs.streams.AnyEvicted()
	rw.BudgetShed = qs.streams.AnyShed()
	rw.Streams = qs.streams.Snapshot()
	qs.stats.Windows++
	qs.stats.Rows += uint64(len(rw.Rows))
	qs.stats.HostDrops = hostDrops
	qs.stats.LateDrops = qs.win.LateDrops() + qs.overflow
	if rw.Degraded {
		qs.stats.DegradedWindows++
	}
	if rw.BudgetShed {
		qs.stats.ShedWindows++
	}
	qs.emit(rw)
	if e.met != nil {
		e.met.windows.Inc()
		if rw.Degraded {
			e.met.degraded.Inc()
		}
		if rw.BudgetShed {
			e.met.shed.Inc()
		}
		e.met.closeNs.Observe(float64(time.Since(t0)))
	}
}

// computeBounds applies the paper's Eq. 1–3 per select column. Only
// columns that are directly a scalable aggregate get a bound; others are
// NaN. Per-host cluster sizes Mᵢ are estimated as mᵢ/qᵢ when event
// sampling is in effect (the host's exact matched totals are cumulative
// across windows, so the per-window Mᵢ is recovered from the sampling
// rate); qᵢ is the host's governor-degraded effective rate when rates
// carries one, else the uniform plan rate.
//
// When rates is non-nil (at least one host deviates from the plan rate),
// the returned sums map also carries the Eq. 1 point estimate τ̂ per
// aggregate index: the caller substitutes it for the uniform scale-up,
// which would be biased by the unequal per-host rates.
func computeBounds(p *Plan, comp *compiled, ws *winState, rates map[string]float64) ([]float64, map[int]float64) {
	bounds := make([]float64, len(p.Select))
	for i := range bounds {
		bounds[i] = math.NaN()
	}
	var sums map[int]float64
	// Host order must be fixed before the float sums inside the estimator:
	// map iteration order would otherwise make ε differ between runs (and
	// between Engine and ShardedEngine) by float-addition rounding.
	hostIDs := make([]string, 0, len(ws.perHost))
	for host := range ws.perHost {
		hostIDs = append(hostIDs, host)
	}
	sort.Strings(hostIDs)
	for col, aggIdx := range comp.directAgg {
		if aggIdx < 0 || !p.Aggs[aggIdx].Spec.Scalable() {
			continue
		}
		hosts := make([]sampling.HostMoments, 0, len(hostIDs))
		for _, host := range hostIDs {
			r := ws.perHost[host][aggIdx]
			if r.N() == 0 {
				continue
			}
			rate := p.SampleEvents
			if hr, ok := rates[host]; ok && hr > 0 && hr < rate {
				rate = hr
			}
			m := uint64(math.Round(float64(r.N()) / rate))
			if m < uint64(r.N()) {
				m = uint64(r.N())
			}
			hosts = append(hosts, sampling.HostMoments{
				HostID: host, M: m, N: r.N(), Sum: r.Sum(), Var: r.Var(),
				// Mᵢ above is mᵢ/q, not an exact per-window count: the
				// hosts' matched totals are cumulative across windows. The
				// estimator must widen the within-host term accordingly.
				EstimatedM: rate < 1,
			})
		}
		if len(hosts) == 0 {
			continue
		}
		total := p.TotalHosts
		if total < len(hosts) {
			total = len(hosts)
		}
		est, err := sampling.EstimateSumMoments(total, hosts, p.Confidence)
		if err != nil {
			continue
		}
		bounds[col] = est.Err
		if rates != nil {
			if sums == nil {
				sums = make(map[int]float64, len(p.Aggs))
			}
			sums[aggIdx] = est.Value
		}
	}
	return bounds, sums
}

// substituteEstimate replaces a scalable aggregate's direct result with
// the moments-based estimate, preserving the result's numeric kind the
// way agg.ScaleResult does.
func substituteEstimate(orig event.Value, est float64) event.Value {
	if _, ok := orig.AsInt(); ok {
		return event.Int(int64(math.Round(est)))
	}
	return event.Float(est)
}

// Tick closes windows by wall clock so idle streams still emit: every
// window ending at or before now−lateness is emitted. It also expires
// stream liveness leases (on the engine's own clock, which may differ
// from nowNanos in virtual-time setups): when a stream is evicted, the
// watermark recomputed over the surviving streams is observed
// immediately, so windows a dead host was holding open close now instead
// of waiting out the force bound. Call it periodically (the query server
// runs a ticker).
func (e *Engine) Tick(nowNanos int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	leaseNow := e.opt.Clock().UnixNano()
	for _, qs := range e.queries {
		// Expire before the hold check: evicting a replaying stream can
		// settle the replay (a dead host will never send its done marker).
		evicted := qs.streams.Expire(leaseNow)
		wasHolding := qs.replayHold
		if replayHolding(&qs.replayHold, qs.replayDeadline, qs.streams, leaseNow) {
			// Replayed history may still be in flight: closing a window
			// now — by watermark or by wall clock — would count it late.
			continue
		}
		released := wasHolding && !qs.replayHold
		if len(evicted) > 0 || released {
			if wm, ok := qs.streams.Watermark(); ok {
				for _, closed := range e.closed(qs.win.Observe(wm)) {
					e.emitWindow(qs, closed)
				}
			}
		}
		for _, closed := range e.closed(qs.win.ForceBefore(nowNanos - int64(qs.plan.Lateness))) {
			e.emitWindow(qs, closed)
		}
	}
}

// StopQuery flushes and removes a query, returning its final stats.
func (e *Engine) StopQuery(id uint64) (transport.QueryStats, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[id]
	if !ok {
		return transport.QueryStats{}, false
	}
	for _, closed := range e.closed(qs.win.Flush()) {
		e.emitWindow(qs, closed)
	}
	qs.stats.HostDrops = qs.streams.HostDrops()
	qs.stats.LateDrops = qs.win.LateDrops() + qs.overflow
	delete(e.queries, id)
	e.met.dropQuery(id)
	return qs.stats, true
}

// Stats returns a query's running stats.
func (e *Engine) Stats(id uint64) (transport.QueryStats, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[id]
	if !ok {
		return transport.QueryStats{}, false
	}
	return qs.stats, true
}

// orderAndLimit applies the plan's ORDER BY keys and LIMIT to an emitted
// window's rows. The order is total and deterministic: incomparable
// values fall back to their string forms, equal ORDER BY keys tie-break
// on the full row, and raw rows without ORDER BY sort canonically —
// arrival order differs between the single-node engine and a sharded
// merge, so a LIMIT cut must never depend on it.
func orderAndLimit(p *Plan, rw *transport.ResultWindow) {
	if len(p.OrderBy) > 0 {
		sort.Slice(rw.Rows, func(i, j int) bool {
			return compareOrdered(p, rw.Rows[i], rw.Rows[j]) < 0
		})
	} else if !p.HasAgg() && !p.Grouped() {
		sort.Slice(rw.Rows, func(i, j int) bool {
			return compareRows(rw.Rows[i], rw.Rows[j]) < 0
		})
	}
	if p.Limit > 0 && len(rw.Rows) > p.Limit {
		rw.Rows = rw.Rows[:p.Limit]
	}
}

// compareOrdered orders two result rows by the plan's ORDER BY keys,
// falling back to the full row on ties so equal sort keys cannot order
// differently between runs (or between Engine and ShardedEngine).
func compareOrdered(p *Plan, a, b []event.Value) int {
	for _, key := range p.OrderBy {
		if key.Col >= len(a) || key.Col >= len(b) {
			continue
		}
		c := compareValues(a[key.Col], b[key.Col])
		if c == 0 {
			continue
		}
		if key.Desc {
			return -c
		}
		return c
	}
	return compareRows(a, b)
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// --- internal surface for the sharded engine (same package) ---

// startQueryDriven installs a query whose window lifecycle is driven
// externally: the caller pulls closed windows with forceCloseQuery and
// stopQueryDriven instead of receiving rendered emissions. Shards of a
// ShardedEngine run in this mode with effectively unbounded lateness, so
// no internal path ever closes a window on its own.
func (e *Engine) startQueryDriven(p Plan) error {
	return e.StartQuery(p, func(transport.ResultWindow) {
		// Unreachable by construction (driven queries close only via the
		// pull methods); tolerate rather than panic if it ever fires.
	})
}

// forceCloseQuery closes and returns the query's windows ending at or
// before bound, without rendering them.
func (e *Engine) forceCloseQuery(id uint64, bound int64) []window.Closed[*winState] {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[id]
	if !ok {
		return nil
	}
	return e.closed(qs.win.ForceBefore(bound))
}

// stopQueryDriven removes a driven query, returning its still-open
// windows and drop counters.
func (e *Engine) stopQueryDriven(id uint64) (partials []window.Closed[*winState], lateDrops uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, exists := e.queries[id]
	if !exists {
		return nil, 0, false
	}
	partials = e.closed(qs.win.Flush())
	lateDrops = qs.win.LateDrops() + qs.overflow
	delete(e.queries, id)
	return partials, lateDrops, true
}

// dropsOf reports a query's current window-late and overflow drop
// counts separately: the sharded merger attributes window-late deltas to
// the stream that shipped the late tuples (mirroring Engine.HandleBatch)
// but folds overflow only into the query-level totals.
func (e *Engine) dropsOf(id uint64) (late, overflow uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, exists := e.queries[id]
	if !exists {
		return 0, 0, false
	}
	return qs.win.LateDrops(), qs.overflow, true
}

// mergeWinStates folds src into dst: groups merge through the mergeable
// aggregators, raw rows concatenate (bounded), per-host moments combine,
// and counters add. Join pending state is irrelevant post-close — shards
// route by request id, so both sides of a request land on one shard and
// were joined there. The return value counts what the merged window could
// not hold — raw rows past MaxRawRows — and callers fold it into their
// overflow accounting so bounded-memory truncation is never silent. src
// must not be used afterwards: the aggregators of a group only src has
// move to dst as they are, still living in src's slabs.
func mergeWinStates(p *Plan, dst, src *winState) (dropped uint64) {
	dst.tuples += src.tuples
	for h := range src.hosts {
		dst.hosts[h] = struct{}{}
	}
	for key, sg := range src.groups {
		saggs := src.aggsOf(sg, len(p.Aggs))
		if dg, ok := dst.groups[key]; ok {
			for i, ag := range dst.aggsOf(dg, len(p.Aggs)) {
				// Same plan, same spec order; Merge errors only on kind
				// mismatch, impossible here.
				_ = ag.Merge(saggs[i])
			}
			continue
		}
		// A group only src has is adopted: its key is copied, its
		// aggregators move over as they are.
		g, keys, aggs, ok := dst.groupRuns(len(p.GroupBy), len(p.Aggs))
		if !ok {
			dropped++
			continue
		}
		copy(keys, src.keyVals(sg, len(p.GroupBy)))
		copy(aggs, saggs)
		dst.groups[key] = g
	}
	rows := src.rawRows(len(p.Select))
	if room := max(p.MaxRawRows-dst.rawN, 0); len(rows) > room {
		dropped += uint64(len(rows) - room)
		rows = rows[:room]
	}
	for _, row := range rows {
		_, out, ok := dst.raw.Alloc(len(row))
		if !ok {
			dropped++
			continue
		}
		copy(out, row)
		dst.rawN++
	}
	for host, sm := range src.perHost {
		dm, ok := dst.perHost[host]
		if !ok {
			dst.perHost[host] = sm
			continue
		}
		for i := range dm {
			dm[i].Merge(sm[i])
		}
	}
	return dropped
}
