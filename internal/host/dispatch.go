package host

import (
	"encoding/binary"
	"math"
	"sync"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/transport"
)

// The dispatch seam: what Log does with one event between loading the
// immutable per-type snapshot and handing a full chunk to the shipper —
// the shared query index (DESIGN.md §14), projection groups, per-query
// sampling and the chunk append. Building the snapshot lives here too;
// installing queries, shipping, the governor and replay are agent.go.

// subscriber is one query's entry in the shared per-type dispatch index:
// the immutable hot-path facts (predicate node, projection group, span)
// plus the owning query, whose sampling, accounting, and chunk remain
// strictly per-subscriber — sharing stops at selection and projection.
type subscriber struct {
	aq *activeQuery
	// pred is the query's predicate node in the type's shared program;
	// -1 matches every event.
	pred int32
	// group indexes typeProgram.groups (the query's projection column
	// set); -1 for zero-width projections.
	group          int32
	startNs, endNs int64
}

// projGroup is one distinct projection column set shared by one or more
// subscribers: the extracted values live at [off, off+len(colIdx)) in the
// dispatch context's flat scratch, filled at most once per event.
type projGroup struct {
	colIdx []int
	off    int
}

// typeProgram is the per-event-type entry of the immutable dispatch
// snapshot: the type's shared query index, rebuilt wholesale by
// rebuildLocked. Instead of running every query's predicate and
// projection independently, the queries' canonicalized predicates are
// interned into one expr.Program (structurally identical predicates and
// common subexpressions become one node each) and subscribers with
// identical column sets share a projection group — per event, each
// distinct predicate node is evaluated at most once and each distinct
// column set extracted at most once, with the results fanned out to
// subscribers.
//
// Subscribers are pre-split so Log pays span comparisons only for
// queries that actually carry a span:
//
//   - always: no span bounds — zero per-event comparisons.
//   - gated: span-bounded; a single ts >= minStart comparison skips the
//     whole list while every spanned query is still pending. Expired
//     queries are removed by PruneExpired (the shipper ticks it), after
//     which they cost nothing.
//
// The split is by query shape, not wall clock, because event timestamps
// may run on virtual time in simulations — classifying by time.Now would
// drop in-span virtual-time events.
type typeProgram struct {
	schema *event.Schema // the catalog's schema for the type
	// prog is the shared evaluation DAG; nil when every subscriber
	// matches all events.
	prog     *expr.Program
	always   []subscriber
	gated    []subscriber
	minStart int64
	groups   []projGroup
	// solo is the one-unfiltered-query fast path: with exactly one query on
	// the type and no predicate there is nothing to evaluate and nothing
	// to share, so the dispatch context (pool round-trip, projection
	// scratch) is pure overhead and projection copies straight from the
	// event into the chunk. Nil otherwise.
	solo *subscriber
	// ctxs pools *dispatchCtx for this snapshot. Per-snapshot (not
	// per-agent) because a context's arrays are sized to this program and
	// group set; a rebuild strands the old pool's contexts along with the
	// old snapshot.
	ctxs sync.Pool
}

// typeIndex is the dispatch snapshot: every queried event type's program
// by name and, while at most scanTypes types are queried, in a slice that
// find tries first by schema identity — a process logs a type through the
// one *event.Schema its catalog holds, so a hit never hashes the name. An
// event of an unqueried type, or one on a second catalog's schema of a
// queried name, falls through to byName having paid the scan for nothing:
// ≈ 1.3 ns with one type queried and ≈ 4 with four, where a hit saves ≈ 4.5
// (BenchmarkLogQueriedTypes, EXPERIMENTS.md M9). The bound keeps that side
// small; past it the snapshot is the map alone.
type typeIndex struct {
	byName map[string]*typeProgram
	few    []*typeProgram
}

const scanTypes = 4

func newTypeIndex(byName map[string]*typeProgram) *typeIndex {
	idx := &typeIndex{byName: byName}
	if len(byName) <= scanTypes {
		for _, tp := range byName {
			idx.few = append(idx.few, tp)
		}
	}
	return idx
}

func (idx *typeIndex) find(s *event.Schema) *typeProgram {
	for _, tp := range idx.few {
		if tp.schema == s {
			return tp
		}
	}
	return idx.byName[s.Name()]
}

// dispatchCtx is the per-event scratch for one pass over a type's
// subscribers: the shared-program evaluation context plus the projection
// groups' extracted values. Pooled; all arrays are preallocated to the
// snapshot's shape so the hot path never grows them.
//
//scrub:pooled
type dispatchCtx struct {
	ec   *expr.Ctx     // nil when the snapshot has no predicate nodes
	proj []event.Value // flat per-group scratch (see projGroup.off)
	done []bool        // per-group: extracted for the current event
}

// project returns group g's extracted column values for ev, extracting
// them on the group's first use for this event and reusing the scratch
// for every later subscriber with the same column set.
func (dc *dispatchCtx) project(tp *typeProgram, g int32, ev *event.Event) []event.Value {
	gr := &tp.groups[g]
	out := dc.proj[gr.off : gr.off+len(gr.colIdx)]
	if !dc.done[g] {
		for j, idx := range gr.colIdx {
			out[j] = ev.At(idx)
		}
		dc.done[g] = true
	}
	return out
}

// clear releases the extracted values so a pooled context does not pin
// event payloads between events.
func (dc *dispatchCtx) clear(tp *typeProgram) {
	for g := range dc.done {
		if !dc.done[g] {
			continue
		}
		gr := &tp.groups[g]
		for j := range gr.colIdx {
			dc.proj[gr.off+j] = event.Value{}
		}
		dc.done[g] = false
	}
}

// newDispatchCtx sizes a context for the snapshot; pool-miss only.
//
//scrub:allowalloc(pool-miss refill; amortized to zero in steady state)
func newDispatchCtx(tp *typeProgram, width int) *dispatchCtx {
	dc := &dispatchCtx{
		proj: make([]event.Value, width),
		done: make([]bool, len(tp.groups)),
	}
	if tp.prog != nil {
		dc.ec = tp.prog.NewCtx()
	}
	return dc
}

// buildTypeProgram compiles one event type's query list into its shared
// dispatch index: predicates interned into one program, identical column
// sets merged into one projection group, subscribers split into the
// always/gated lists.
func buildTypeProgram(schema *event.Schema, aqs []*activeQuery) *typeProgram {
	tp := &typeProgram{schema: schema}
	b := expr.NewProgramBuilder()
	groupIdx := make(map[string]int32, len(aqs))
	width := 0
	for _, aq := range aqs {
		s := subscriber{aq: aq, pred: -1, group: -1, startNs: aq.startNs, endNs: aq.endNs}
		if aq.canon != nil {
			// Start trial-interned the same canonical tree, so this cannot
			// fail here.
			id, err := b.Intern(aq.canon)
			if err != nil {
				continue // unreachable; drop rather than dispatch wrongly
			}
			s.pred = id
		}
		if aq.width > 0 {
			gk := groupKey(aq.colIdx)
			g, ok := groupIdx[gk]
			if !ok {
				g = int32(len(tp.groups))
				groupIdx[gk] = g
				tp.groups = append(tp.groups, projGroup{colIdx: aq.colIdx, off: width})
				width += aq.width
			}
			s.group = g
		}
		if s.startNs == 0 {
			// A zero start leaves the span open before it, pre-1970 event
			// times included, for the solo and gated checks alike.
			s.startNs = math.MinInt64
		}
		if aq.startNs == 0 && aq.endNs == 0 {
			tp.always = append(tp.always, s)
		} else {
			if len(tp.gated) == 0 || s.startNs < tp.minStart {
				tp.minStart = s.startNs
			}
			tp.gated = append(tp.gated, s)
		}
	}
	if prog := b.Build(); prog.NumNodes() > 0 {
		tp.prog = prog
	}
	if len(tp.always)+len(tp.gated) == 1 && tp.prog == nil {
		if len(tp.always) == 1 {
			tp.solo = &tp.always[0]
		} else {
			tp.solo = &tp.gated[0]
		}
	}
	projWidth := width
	tp.ctxs.New = func() any { return newDispatchCtx(tp, projWidth) }
	return tp
}

// groupKey encodes a projection column set so subscribers projecting
// identical columns (in the same order) share one projGroup.
func groupKey(colIdx []int) string {
	b := make([]byte, 0, len(colIdx)*4)
	for _, idx := range colIdx {
		b = binary.AppendVarint(b, int64(idx))
	}
	return string(b)
}

// logEvent dispatches one event through the type's shared query index:
// each distinct predicate node is evaluated at most once (memoized in the
// dispatch context's expr.Ctx), each distinct projection column set is
// extracted at most once, and the results fan out to subscribers — whose
// sampling, accounting, and chunks remain strictly per-query.
//
//scrub:hotpath
func (a *Agent) logEvent(ev *event.Event) {
	tp := a.byType.Load().find(ev.Schema)
	if tp == nil {
		return
	}
	ts := ev.TimeNanos
	if s := tp.solo; s != nil {
		if ts < s.startNs || (s.endNs != 0 && ts >= s.endNs) {
			return
		}
		a.offerMatched(tp, s, nil, ev, ts)
		a.matched.Add(1)
		return
	}
	dc := tp.ctxs.Get().(*dispatchCtx)
	if dc.ec != nil {
		dc.ec.Begin(expr.EventRow{Event: ev})
	}
	anyMatch := false
	for i := range tp.always {
		s := &tp.always[i]
		if s.pred >= 0 && !dc.ec.Bool(s.pred) {
			continue
		}
		a.offerMatched(tp, s, dc, ev, ts)
		anyMatch = true
	}
	if len(tp.gated) > 0 && ts >= tp.minStart {
		for i := range tp.gated {
			s := &tp.gated[i]
			if ts < s.startNs {
				continue
			}
			if s.endNs != 0 && ts >= s.endNs {
				continue
			}
			if s.pred >= 0 && !dc.ec.Bool(s.pred) {
				continue
			}
			a.offerMatched(tp, s, dc, ev, ts)
			anyMatch = true
		}
	}
	if dc.ec != nil {
		dc.ec.Finish()
	}
	dc.clear(tp)
	tp.ctxs.Put(dc)
	if anyMatch {
		a.matched.Add(1)
	}
}

// offerMatched runs the per-subscriber half of dispatch for an event that
// already passed the shared selection stage: Mᵢ accounting, event
// sampling, and (for kept events) projection into the query's chunk.
func (a *Agent) offerMatched(tp *typeProgram, s *subscriber, dc *dispatchCtx, ev *event.Event, ts int64) {
	aq := s.aq
	m := aq.matched.Add(1)
	// The matched count doubles as the cost-sampling sequence, so the
	// per-query CPU measurement adds no atomics of its own. Shared
	// selection cost is not charged per-query — as before, when selection
	// for non-matching events was not charged — because shedding one
	// subscriber cannot remove a predicate node other queries still need.
	timed := m&costSampleMask == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	kept := true
	if !aq.sampleAll.Load() {
		if aq.skip.Add(-1) != 0 {
			// >0: inside the current gap. <0: a racing decrement during a
			// concurrent re-arm; the re-arm's Add folds it into the next
			// gap. Either way the event is unsampled and cost one decrement.
			kept = false
		} else {
			aq.sampled.Add(1)
		}
	}
	if kept {
		a.enqueue(tp, s, dc, ev, ts)
	}
	if timed {
		aq.cpuNs.Add(uint64(time.Since(t0)) << costSampleShift)
	}
}

// enqueue copies the event's projected columns — extracted at most once
// per event per distinct column set by the dispatch context — into the
// query's active chunk, submitting the chunk to the shipper when it
// fills. Allocation-free in steady state: the tuple and its values land
// in pooled chunk memory. A nil dc (the solo fast path) extracts the
// columns directly from the event into the chunk.
func (a *Agent) enqueue(tp *typeProgram, s *subscriber, dc *dispatchCtx, ev *event.Event, ts int64) {
	aq := s.aq
	// Extract (or reuse) the group's columns outside aq.mu: the scratch
	// belongs to the dispatch context, not the query.
	var src []event.Value
	if dc != nil && s.group >= 0 {
		src = dc.project(tp, s.group, ev)
	}
	aq.mu.Lock()
	if !aq.sampleAll.Load() {
		// Re-arm the countdown for the next kept event. Adding (rather
		// than storing) credits decrements that raced past zero, keeping
		// the long-run keep rate unbiased.
		aq.skip.Add(aq.sampler.NextSkip())
	}
	c := aq.cur
	if c == nil {
		c = a.getChunk(aq)
		//scrub:allowretain(chunk parked on its owning query under aq.mu; reclaimed by submit/salvage/flush)
		aq.cur = c
	}
	i := c.n
	var vals []event.Value
	if w := aq.width; w > 0 {
		base := i * w
		vals = c.vals[base : base+w : base+w]
		if src != nil {
			copy(vals, src)
		} else {
			for j, idx := range aq.colIdx {
				vals[j] = ev.At(idx)
			}
		}
	}
	c.tuples[i] = transport.Tuple{RequestID: ev.RequestID, TsNanos: ts, Values: vals}
	c.n++
	full := c.n == len(c.tuples)
	if full {
		aq.cur = nil
	}
	aq.mu.Unlock()
	if full {
		a.chunkFills.Inc()
		a.submit(c)
	}
}
