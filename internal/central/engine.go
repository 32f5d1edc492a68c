package central

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"scrub/internal/agg"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/governor"
	"scrub/internal/obs"
	"scrub/internal/ql"
	"scrub/internal/sampling"
	"scrub/internal/slab"
	"scrub/internal/transport"
	"scrub/internal/window"
)

// stateGauges are the series that say what the open windows hold, and all
// a kernel registers (ingest and closes are the merger's): the kernels of
// an in-process cluster charge the cluster's one set, a shard process
// serves its own. Only a central registry carries them: on the agent path
// even a few always-live series are a measurable share of the footprint.
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
		bytes:       reg.Gauge("scrub_central_state_bytes", "capacity in bytes of the open windows' state (join-pending and group runs and their bucket heads, a join window's string slots, aggregate states and sketches, raw rows); only the per-host maps are not counted"),
	}
}

// Engine is the shard kernel of ScrubCentral: per query it keeps the open
// windows and folds sub-batches into them — span filter, window routing,
// the request-id equi-join, grouping, aggregation — and gives windows up
// when its merger names a bound (partial.go). It knows no stream, no
// watermark and no lateness and never closes a window on its own: that is
// the Merger's (merge.go). The Executor methods (sharded.go) work only on
// an Engine NewEngine built, which has a one-shard cluster to forward to.
type Engine struct {
	state   *stateGauges   // nil when no registry configured
	cluster *ShardedEngine // the n = 1 cluster over this kernel; nil in a shard of anything else
	mu      sync.Mutex
	queries map[uint64]*queryState
}

// NewShardEngine returns the kernel of one shard of a cluster. The open
// windows live in the shards: it charges them to reg's state gauges, and
// registers nothing else.
func NewShardEngine(reg *obs.Registry) *Engine {
	return &Engine{state: newStateGauges(reg), queries: make(map[uint64]*queryState)}
}

type queryState struct {
	QueryRuntime
	win      *window.SlidingManager[*winState]
	tuplesIn uint64 // tuples applied, one per tuple and covering window
	overflow uint64 // raw-row + join-pending drops
	// Per-query scratch for the apply path (the engine lock is held
	// throughout a batch, so one set per query suffices): the evaluation
	// context and the tuple row it reads — the shipped tuple and, in a
	// join, the buffered partner — the cells a buffered tuple's columns
	// are unpacked into for a probe, the links a probe found under its
	// request id, the buffer join, group and raw runs are packed in before
	// the window keeps them, and the string slots a join run claims
	// (packJoin).
	ctx     *expr.Ctx
	sides   [2]expr.Tuple
	probe   []event.Value
	found   []uint32
	packBuf []byte
	claims  []uint32
	// chainSteps counts the runs join probes have visited; tests assert on
	// it that a probe never walks its own side's chain.
	chainSteps uint64
}

// StartDriven installs a query; its windows close only through
// CollectDriven and DrainDriven. Every shard of a cluster runs every query.
func (e *Engine) StartDriven(p Plan) error {
	qr, err := CompileQuery(p)
	if err != nil {
		return err
	}
	return e.start(qr)
}

// start installs a compiled query. A direct client hands over its merger's:
// the program and its binding are immutable and each query state evaluates
// through a Ctx of its own, so one process compiles a query once.
func (e *Engine) start(qr *QueryRuntime) (err error) {
	qs := &queryState{QueryRuntime: *qr, ctx: qr.comp.prog.NewCtx()}
	if qs.plan.IsJoin() {
		qs.probe = make([]event.Value, max(len(qs.plan.Columns[0]), len(qs.plan.Columns[1])))
	}
	qs.win, err = window.NewSlidingManager(qs.plan.Window, qs.plan.Slide, func(start, end int64) *winState {
		return newWinState(&qs.plan, start)
	})
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.queries[qs.plan.QueryID]; dup {
		return fmt.Errorf("central: query %d already active", qs.plan.QueryID)
	}
	e.queries[qs.plan.QueryID] = qs
	return nil
}

// DrivenQueries returns the ids of the queries the kernel runs.
func (e *Engine) DrivenQueries() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]uint64, 0, len(e.queries))
	for id := range e.queries {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// TuplesIn reports how many tuples the kernel has applied for a query
// (one per tuple and covering window), and whether it runs the query.
func (e *Engine) TuplesIn(id uint64) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[id]
	if !ok {
		return 0, false
	}
	return qs.tuplesIn, true
}

// ApplyDriven folds a sub-batch's in-span tuples into every window
// covering them and reports what that did to the windows and the drop
// counters. known is false for a query the kernel does not run: batches
// race query teardown by design. Over windows and groups that are already
// open it allocates nothing.
func (e *Engine) ApplyDriven(b transport.TupleBatch) (ack DrivenAck, known bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[b.QueryID]
	if !ok || int(b.TypeIdx) >= len(qs.plan.Types) {
		return DrivenAck{}, false
	}
	lateBefore, overflowBefore := qs.win.LateDrops(), qs.overflow
	dataStart := qs.plan.DataStartNanos()
	w := tupleWeight(qs.plan.SampleEvents, b.EffRate)
	var maxTs int64
	var hasTs bool
	for i := range b.Tuples {
		t := &b.Tuples[i]
		if dataStart != 0 && t.TsNanos < dataStart {
			continue
		}
		if qs.plan.EndNanos != 0 && t.TsNanos >= qs.plan.EndNanos {
			continue
		}
		for _, ws := range qs.win.GetAll(t.TsNanos) {
			e.processTuple(qs, ws, b.HostID, b.TypeIdx, t, w)
		}
		if !hasTs || t.TsNanos > maxTs {
			maxTs, hasTs = t.TsNanos, true
		}
	}
	// The scratch row must not keep pointing into the batch's pooled
	// memory once the call returns (host.Sink contract), nor the probe
	// cells into the chunks of a window that may close before the next
	// batch.
	qs.sides = [2]expr.Tuple{}
	clear(qs.probe)
	return DrivenAck{
		HasTs: hasTs, MaxTs: maxTs,
		LateDelta: qs.win.LateDrops() - lateBefore, OverflowDelta: qs.overflow - overflowBefore,
	}, true
}

// tupleWeight is what a tuple sampled at rate counts for under plan rate
// q: q/rate, exactly 2^k ≤ 64, as the governor halves and doubles down to
// governor.MinMult, so weighted counts stay integers in any fold order. No
// rate (zero, or NaN off the wire), or one above q, weighs 1.
func tupleWeight(q, rate float64) uint64 {
	if !(rate > 0) {
		return 1
	}
	return uint64(min(max(math.Round(q/rate), 1), 1/governor.MinMult))
}

// closed takes windows that have just left a query's manager off the
// state gauges and passes them on. Both ways out — collect and drain — go
// through it, so no gauge can leak upward.
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

// processTuple routes one in-window tuple of weight w through join (if
// any), the residual predicate, and accumulation.
//
//scrub:hotpath
func (e *Engine) processTuple(qs *queryState, ws *winState, host string, typeIdx uint8, t *transport.Tuple, w uint64) {
	ws.tuples++
	ws.weight += w
	qs.tuplesIn++
	ws.touch(host, qs.plan.moments)
	//scrub:allowretain(the row the program reads while this tuple is applied; ApplyDriven clears it before it returns)
	qs.sides[typeIdx] = expr.Tuple{RequestID: t.RequestID, TimeNanos: t.TsNanos, Values: t.Values}

	if !qs.plan.IsJoin() {
		if qs.admit() {
			e.accumulate(qs, ws, w)
		}
		return
	}

	// Equi-join on the request identifier, within the window: pair the
	// tuple with everything the other side has buffered under its id, then
	// buffer it for the other side's later arrivals.
	side, hash := uint64(typeIdx), hashID(t.RequestID)<<1
	idAt := e.probeJoin(qs, ws, side, hash, t, w)
	if !e.buffer(qs, ws, side, hash, t, w, idAt) {
		qs.overflow++
	}
}

// admit starts the evaluation of the row qs.sides holds and reports
// whether it passes the residual predicate.
func (qs *queryState) admit() bool {
	qs.ctx.BeginTuples(qs.comp.bind, &qs.sides, nil)
	return qs.comp.pred < 0 || qs.ctx.Bool(qs.comp.pred)
}

// probeJoin folds the joined rows a tuple forms with the other side's
// buffered tuples of its request id, in their arrival order — the order
// float sums are folded in must not change. Only the other side's chain
// (hash is hashID(id)<<1, the side its low bit) is walked, so a flood of
// one id from one side costs its own side nothing. A chain runs newest
// first: the matching links are collected, then replayed backwards. The
// tuple is side side of qs.sides already; each partner becomes the other.
// It returns the address + 1 of a run that holds the request id inline —
// a partner, or the partner its ref names — for buffer to refer to, 0
// when the probe found no partner.
//
// A pair weighs the larger of its two tuples' weights: hosts sample a join
// by request id, and the lighter side keeps every request the heavier one
// keeps (sampling.Keep). A run of a side whose time the plan does not read
// keeps its weight alone (compiled.span 0), and the partner's time is then
// the window's start, which nothing reads.
//
//scrub:hotpath
func (e *Engine) probeJoin(qs *queryState, ws *winState, side, hash uint64, t *transport.Tuple, w uint64) (idAt uint32) {
	other := 1 - side
	found := qs.found[:0]
	for link := ws.join.Head(hash | other); link != 0; {
		b := ws.arena.Tail(link - 1)
		h := slab.ParseHeader(b)
		if ws.requestID(b, h) == t.RequestID {
			found = append(found, link)
			idAt = holder(b, h, link)
		}
		link = h.Next
		qs.chainSteps++
	}
	qs.found = found
	if len(found) == 0 {
		return 0
	}
	vals := qs.probe[:len(qs.plan.Columns[other])]
	span := qs.comp.span[other]
	for i := len(found) - 1; i >= 0; i-- {
		b := ws.arena.Tail(found[i] - 1)
		// Strings alias the arena chunk: they are read while this tuple
		// is applied and a run's payload is never rewritten.
		h := slab.ParseHeader(b)
		ws.unpackJoin(vals, b[joinCols(h):], len(vals))
		dt, pw := h.Bits>>runFlags, w
		if span == 0 {
			dt, pw = 0, max(w, dt+1)
		} else if dt >= span {
			pw = max(w, dt/span+1)
			dt %= span
		}
		qs.sides[other] = expr.Tuple{RequestID: t.RequestID, TimeNanos: ws.start + int64(dt), Values: vals}
		if qs.admit() {
			e.accumulate(qs, ws, pw)
		}
	}
	return idAt
}

// buffer keeps a join tuple of weight w for the other side's later
// arrivals as one arena run, threaded on its side's chain (winState.arena
// has the layout): its event time only when the plan reads it, a link
// only when its bucket holds a run already (the index's header), and its
// request id only when the probe before it found no partner holding the
// id (idAt, probeJoin's result). It reports false when the window is at
// maxJoinPending (or the arena at the end of its address space).
//
//scrub:hotpath
func (e *Engine) buffer(qs *queryState, ws *winState, side, hash uint64, t *transport.Tuple, w uint64, idAt uint32) bool {
	if ws.pendN >= qs.plan.maxJoinPending {
		return false
	}
	if ws.join.Full() {
		// First: whether the run holds a link depends on the bucket it is
		// threaded into.
		ws.join.Split(&ws.arena, ws.joinHash)
	}
	tag := w - 1
	if span := qs.comp.span[side]; span > 0 {
		tag = tag*span + uint64(t.TsNanos-ws.start)
	}
	bits := tag<<runFlags | side
	if idAt != 0 {
		bits |= runRef
	}
	// The batch's Values arrays live in memory that is recycled once the
	// batch has been applied (host.Sink; a shard's receive scratch): what
	// the window keeps of a tuple is its columns' wire form, copied into
	// the arena.
	buf := ws.join.AppendHeader(qs.packBuf[:0], hash|side, bits)
	if idAt != 0 {
		buf = binary.LittleEndian.AppendUint32(buf, idAt-1)
	} else {
		buf = binary.LittleEndian.AppendUint64(buf, t.RequestID)
	}
	buf, claims := ws.packJoin(buf, t.Values, len(qs.plan.Columns[side]), qs.claims[:0])
	qs.packBuf, qs.claims = buf, claims
	at, ok := ws.arena.Append(buf)
	if !ok {
		return false
	}
	ws.claimStrings(at, buf, claims)
	ws.join.Insert(at, hash|side)
	ws.pendN++
	if e.state != nil {
		e.state.joinPending.Add(1)
		e.charge(ws)
	}
	return true
}

// accumulate folds the row qs.ctx has begun — a tuple or a joined pair,
// of weight w — into the window's groups, or collects it as a raw result
// row for non-aggregate queries.
func (e *Engine) accumulate(qs *queryState, ws *winState, w uint64) {
	p, c, ctx := &qs.plan, qs.comp, qs.ctx
	if !p.HasAgg() && !p.Grouped() {
		if ws.rawN >= p.maxRawRows {
			qs.overflow++
			return
		}
		buf := qs.packBuf[:0]
		for _, id := range c.selects {
			buf = event.AppendValue(buf, ctx.Value(id))
		}
		qs.packBuf = buf
		if _, ok := ws.raw.Append(buf); !ok {
			qs.overflow++
			return
		}
		ws.rawN++
		e.charge(ws)
		return
	}

	// The key is encoded into the query's buffer behind room for a group
	// run's header, so that a key the window has not seen is kept without
	// copying it again (addGroup).
	buf := appendRoom(qs.packBuf[:0])
	for _, id := range c.groups {
		buf = event.AppendValue(buf, ctx.Value(id))
	}
	qs.packBuf = buf
	key := buf[groupRoom:]
	hash := hashKey(key)
	g, ok := ws.findGroup(hash, key)
	if !ok {
		if g, ok = ws.openGroup(p, hash, buf); !ok {
			qs.overflow++
			return
		}
		e.charge(ws)
	}
	grew := false
	for i, id := range c.aggArgs {
		var v event.Value // COUNT(*) reads none
		if id >= 0 {
			v = ctx.Value(id)
		}
		grew = ws.aggs.Add(g, i, v, w) || grew
	}
	if grew {
		e.charge(ws)
	}

	// Error-bound moments: ungrouped scalable aggregates (Plan.moments),
	// folded into the moments touch looked up for the tuple's host.
	// Collected even at plan rate 1, because the host-side budget governor
	// can lower a host's rate mid-query, and a tuple's weight then says
	// how many events its reading stands for. Grouped queries have no
	// moment tracking (bounds are per-column, not per-group). A reading is
	// 1 for COUNT(*) and a non-NULL COUNT(x), x for SUM; an argument is
	// read back from the program's registers, not computed again. A SUM
	// reading that is NaN folds nothing, so a moment's v is never NaN.
	if moments := ws.lastMoments; moments != nil {
		fw := float64(w)
		for i, a := range p.Aggs {
			if !a.Spec.Scalable() {
				continue
			}
			x := 1.0
			if id := c.aggArgs[i]; id >= 0 {
				v := ctx.Value(id)
				if a.Spec.Kind == agg.KindCount {
					if !v.IsValid() {
						continue
					}
				} else if x, ok = v.AsFloat(); !ok || math.IsNaN(x) {
					continue
				}
			}
			moments[i].add(x, fw, p.SampleEvents)
		}
	}
}

// renderWindow turns a closed window's accumulated state into result
// rows: group ordering, aggregate rendering with Horvitz-Thompson
// scale-up, HAVING, error bounds, ORDER BY and LIMIT. It runs at the
// merger, on a window's merged state, whatever the shard count.
//
// Every scalable aggregate, grouped or not, scales by the plan's one
// factor: a tuple a governed host sampled below the plan's rate was
// weighted at apply (tupleWeight). The window is approximate when the
// plan samples or when any of its tuples was weighted.
func renderWindow(p *Plan, comp *compiled, start, end int64, ws *winState) transport.ResultWindow {
	rw := transport.ResultWindow{
		QueryID:     p.QueryID,
		WindowStart: start,
		WindowEnd:   end,
		Columns:     ql.Labels(p.Select),
	}

	factor := p.scaleFactor()
	rw.Approx = factor != 1 || ws.weight != ws.tuples

	switch {
	case !p.HasAgg() && !p.Grouped():
		rw.Rows = ws.rawRows(len(comp.selects))

	default:
		// An ungrouped aggregate query emits one row even for an empty
		// window (COUNT(*) = 0), matching SQL semantics.
		if ws.groups.Len() == 0 && p.HasAgg() && !p.Grouped() {
			ws.openGroup(p, hashKey(nil), appendRoom(nil))
		}
		// Deterministic group order: sort by encoded key.
		groups := ws.sortedGroups()
		if rw.Approx && !p.Grouped() {
			rw.ErrBounds = computeBounds(p, comp, ws)
		}
		// One evaluation context, one row — the group's key values, its
		// scaled aggregates — and one backing array serve every group:
		// Value copies what it reads, and a row that fails HAVING gives
		// its slot back.
		width := len(comp.selects)
		ctx := comp.prog.NewCtx()
		var row [2]expr.Tuple
		row[0].Values = make([]event.Value, len(p.GroupBy))
		aggs := make([]event.Value, len(p.Aggs))
		out := make([]event.Value, 0, len(groups)*width)
		for _, g := range groups {
			// What a result row takes from the key's wire form is decoded
			// into memory of its own.
			unpackValues(row[0].Values, g.key)
			for i := range p.Aggs {
				v := ws.aggs.At(g.ordinal, i).Result()
				if p.Aggs[i].Spec.Scalable() {
					v = agg.ScaleResult(v, factor)
				}
				aggs[i] = v
			}
			ctx.BeginTuples(comp.keys, &row, aggs)
			if comp.having >= 0 && !ctx.Bool(comp.having) {
				continue
			}
			n := len(out)
			for _, id := range comp.selects {
				out = append(out, ctx.Value(id))
			}
			rw.Rows = append(rw.Rows, out[n:n+width:n+width])
		}
	}
	orderAndLimit(p, &rw)
	rw.Stats.TuplesIn = ws.tuples
	rw.Stats.HostsReporting = uint32(len(ws.hosts))
	return rw
}

// computeBounds applies the paper's Eq. 1–3 per select column, in their
// Horvitz–Thompson form (internal/sampling): a host's total is its
// moment's t/q, and that total's variance v/q². Only columns that are
// directly a scalable aggregate of a plan that keeps moments get a bound,
// and only when some host has a nonzero reading (0 ± 0 would claim an
// exact zero); others are NaN. n is the hosts the plan sampled
// (Plan.SampledHosts), or the hosts that reported if more did: a sampled
// host without a reading is a zero, not a host left out.
func computeBounds(p *Plan, comp *compiled, ws *winState) []float64 {
	// Host order must be fixed before the float sums inside the estimator:
	// map iteration order would otherwise make ε differ between runs (and
	// between shard counts) by float-addition rounding.
	hostIDs := sortedKeys(ws.hosts)
	totals := make([]sampling.HostTotal, max(p.SampledHosts, len(hostIDs)))
	q := p.SampleEvents
	bounds := make([]float64, len(p.Select))
	for col, aggIdx := range comp.directAgg {
		bounds[col] = math.NaN()
		if aggIdx < 0 || p.moments == 0 || !p.Aggs[aggIdx].Spec.Scalable() {
			continue
		}
		read := false
		for i, host := range hostIDs {
			m := ws.hosts[host][aggIdx]
			totals[i] = sampling.HostTotal{T: m.t / q, V: m.v / (q * q)}
			read = read || m != moment{}
		}
		if !read {
			continue
		}
		if _, eps, err := sampling.EstimateSum(max(p.TotalHosts, len(totals)), totals); err == nil {
			bounds[col] = eps
		}
	}
	return bounds
}

// orderAndLimit applies the plan's ORDER BY keys and LIMIT to an emitted
// window's rows. The order is total and deterministic: incomparable
// values fall back to their string forms, equal ORDER BY keys tie-break
// on the full row, and raw rows without ORDER BY sort canonically —
// arrival order differs with the shard count, so a LIMIT cut must never
// depend on it.
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
// differently between runs (or between shard counts).
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

// mergeWinStates folds src into dst: counters add, the host tables join
// (the moments of a host both have combine), groups merge through the
// mergeable aggregators and raw rows concatenate (bounded). Join pending
// state is irrelevant post-close — shards route by request id, so both
// sides of a request land on one shard and were joined there. The return
// value counts what the merged window could not hold — raw rows past
// maxRawRows — and callers fold it into their overflow accounting so
// bounded-memory truncation is never silent. src must not be used
// afterwards: the sketches of a group only src has move to dst as they
// are, and so do the moments of a host only src has.
func mergeWinStates(p *Plan, dst, src *winState) (dropped uint64) {
	dst.tuples += src.tuples
	dst.weight += src.weight
	for host, sm := range src.hosts {
		dm, ok := dst.hosts[host]
		if !ok {
			dst.hosts[host] = sm
			continue
		}
		for i := range dm {
			dm[i].t += sm[i].t
			dm[i].v += sm[i].v
		}
	}
	var adopted []byte
	for runs := src.groupsInOrder(); ; {
		run := runs.next()
		if run == nil {
			break
		}
		g := groupOf(run)
		hash := hashKey(g.key)
		if dg, ok := dst.findGroup(hash, g.key); ok {
			dst.aggs.Merge(dg, src.aggs, g.ordinal)
			continue
		}
		// A group only src has is adopted under the same key: its states
		// are copied over, its sketches move.
		dg, ok := dst.aggStates(p).Adopt(src.aggs, g.ordinal)
		if ok {
			adopted = append(appendRoom(adopted[:0]), g.key...)
			ok = dst.addGroup(hash, adopted, dg)
		}
		if !ok {
			dropped++
		}
	}
	take := min(src.rawN, max(p.maxRawRows-dst.rawN, 0))
	dropped += uint64(src.rawN - take)
	for rows := rowsOf(&src.raw, len(p.Select)); take > 0; take-- {
		if _, ok := dst.raw.Append(rows.next()); !ok {
			dropped++
			continue
		}
		dst.rawN++
	}
	return dropped
}
