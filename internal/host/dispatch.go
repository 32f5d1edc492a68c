package host

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/sampling"
	"scrub/internal/transport"
)

// The dispatch seam: what Log does with one event between loading the
// immutable per-type snapshot and handing a full chunk to the shipper —
// the shared query index (DESIGN.md §14), per-query sampling and the
// projection into the query's chunk. Building the snapshot lives here too;
// installing queries, lanes, shipping, the governor and replay's scan are
// agent.go.

// subscriber is one query's entry in the shared per-type dispatch index:
// the immutable hot-path facts (predicate node, span) plus the lane the
// query's kept events go to, whose sampling, accounting, projection and
// chunk remain strictly per-subscriber — sharing stops at selection.
type subscriber struct {
	ln *lane
	// pred is the query's predicate node in the type's shared program;
	// -1 matches every event.
	pred int32
	// startNs is math.MinInt64 for a span open before; endNs is 0 for one
	// open after.
	startNs, endNs int64
}

// typeProgram is the per-event-type entry of the immutable dispatch
// snapshot: the type's shared query index, replaced wholesale when a
// query of the type starts (installLocked) or any query leaves
// (rebuildLocked). Instead of running every query's predicate
// independently, the queries' canonicalized predicates are interned into
// one expr.Program (structurally identical predicates and common
// subexpressions become one node each): per event, each distinct
// predicate node is evaluated at most once, and the result fans out to
// subscribers.
//
// A single ts >= minStart comparison skips the whole list while every
// subscriber's span is still pending; past it each subscriber checks its
// own span. Expired queries are removed by PruneExpired (the shipper
// ticks it), after which they cost nothing. Spans are read on event time,
// never on time.Now, because event timestamps may run on virtual time in
// simulations.
type typeProgram struct {
	schema *event.Schema // the catalog's schema for the type
	// prog is the shared evaluation DAG; nil when every subscriber
	// matches all events.
	prog     *expr.Program
	subs     []subscriber
	minStart int64
	// ctxs pools prog's *expr.Ctx; unused when prog is nil. Per-snapshot
	// (not per-agent) because a context's registers are sized to this
	// program; a rebuild strands the old pool's contexts along with the
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

// cut copies what subs' predicates reach in tp's program (nil: no query
// on the type) into a fresh builder, expr.Program.Keep, and returns subs
// in subscriberOrder with their predicates renumbered into it. It is the
// one way a type's program changes: Start interns into a cut to every
// subscriber, removal and shed cut to the rest, a replay scan to its own.
func cut(tp *typeProgram, subs []subscriber) (*expr.ProgramBuilder, []subscriber) {
	slices.SortFunc(subs, subscriberOrder)
	if tp == nil || tp.prog == nil {
		return expr.NewProgramBuilder(), subs
	}
	roots := make([]int32, len(subs))
	for i, s := range subs {
		roots[i] = s.pred
	}
	b, roots := tp.prog.Keep(roots)
	for i := range subs {
		subs[i].pred = roots[i]
	}
	return b, subs
}

// subscriberOrder orders a type's subscribers by (QueryID, TypeIdx), so
// the order Log offers an event to them depends on neither map iteration
// nor install order.
func subscriberOrder(x, y subscriber) int {
	p, q := x.ln.aq, y.ln.aq
	return cmp.Or(cmp.Compare(p.queryID, q.queryID), cmp.Compare(p.typeIdx, q.typeIdx))
}

// buildTypeProgram builds one event type's dispatch index over prog, the
// program every subscriber's pred is a node of, with subs copied, in the
// order given, into a list of their exact length. Each subscriber comes
// with its lane, its predicate node and its span: as the query set it, or
// as an earlier build left it, which builds the same list again.
func buildTypeProgram(schema *event.Schema, prog *expr.Program, subs []subscriber) *typeProgram {
	tp := &typeProgram{schema: schema, subs: make([]subscriber, len(subs)), minStart: math.MaxInt64}
	for i, s := range subs {
		if s.startNs == 0 {
			// A zero start leaves the span open before it, pre-1970 event
			// times included.
			s.startNs = math.MinInt64
		}
		tp.subs[i] = s
		tp.minStart = min(tp.minStart, s.startNs)
	}
	if prog.NumNodes() > 0 {
		tp.prog = prog
		tp.ctxs.New = func() any { return prog.NewCtx() }
	}
	return tp
}

// dispatch runs one event through a type's query index — Log's snapshot
// entry, or a replay scan's one-query index: each distinct predicate node
// is evaluated at most once (memoized in a pooled expr.Ctx), and each
// subscriber the event passes samples it and projects it into its own
// chunk.
//
//scrub:hotpath
func (a *Agent) dispatch(tp *typeProgram, ev *event.Event) {
	ts := ev.TimeNanos
	if ts < tp.minStart {
		return
	}
	var ec *expr.Ctx
	if tp.prog != nil {
		ec = tp.ctxs.Get().(*expr.Ctx)
		ec.Begin(expr.EventRow{Event: ev})
	}
	anyMatch := false
	for i := range tp.subs {
		s := &tp.subs[i]
		if ts < s.startNs || (s.endNs != 0 && ts >= s.endNs) {
			continue
		}
		if s.pred >= 0 && !ec.Bool(s.pred) {
			continue
		}
		a.offerMatched(s.ln, ev, ts)
		anyMatch = true
	}
	if ec != nil {
		ec.Finish()
		tp.ctxs.Put(ec)
	}
	if anyMatch {
		a.matched.Add(1)
	}
}

// offerMatched runs the per-subscriber half of dispatch for an event that
// already passed the shared selection stage: Mᵢ accounting, event
// sampling, and (for kept events) projection into the query's chunk,
// whose detach counts them in mᵢ.
func (a *Agent) offerMatched(ln *lane, ev *event.Event, ts int64) {
	aq := ln.aq
	m := aq.matched.Add(1)
	// The matched count doubles as the cost-sampling sequence, so the
	// per-query CPU measurement adds no atomics of its own. Shared
	// selection cost is not charged per-query — as before, when selection
	// for non-matching events was not charged — because shedding one
	// subscriber cannot remove a predicate node other queries still need.
	// A replay lane is not timed, so a budgeted REPLAY query cannot shed
	// itself on its own history scan.
	timed := ln.epoch == 0 && m&costSampleMask == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	thr := ln.thr.Load()
	kept := thr == keepAll
	if !kept {
		key := ev.RequestID
		if !aq.byRequest {
			key = ln.ord.Add(1)
		}
		kept = sampling.Keep(aq.seed, key, thr)
	}
	if kept {
		a.enqueue(ln, ev, ts)
	}
	if timed {
		aq.cpuNs.Add(uint64(time.Since(t0)) << costSampleShift)
	}
}

// enqueue copies the event's projected columns into the lane's active
// chunk, stamped with the lane's epoch and step, submitting the chunk to
// the shipper when it fills. Allocation-free in steady state: the tuple
// and its values land in pooled chunk memory.
func (a *Agent) enqueue(ln *lane, ev *event.Event, ts int64) {
	aq := ln.aq
	ln.mu.Lock()
	c := ln.cur
	if c == nil {
		c = a.getChunk(aq)
		c.epoch, c.step = ln.epoch, ln.step
		//scrub:allowretain(chunk parked on its owning lane under ln.mu; reclaimed by submit/salvage/flush/replay's tail)
		ln.cur = c
	}
	i := c.n
	var vals []event.Value
	if w := aq.width; w > 0 {
		base := i * w
		vals = c.vals[base : base+w : base+w]
		for j, idx := range aq.colIdx {
			vals[j] = ev.At(idx)
		}
	}
	c.tuples[i] = transport.Tuple{RequestID: ev.RequestID, TsNanos: ts, Values: vals}
	c.n++
	full := c.n == len(c.tuples)
	if full {
		ln.detachLocked()
	}
	ln.mu.Unlock()
	if full {
		a.chunkFills.Inc()
		a.submit(c)
	}
}
