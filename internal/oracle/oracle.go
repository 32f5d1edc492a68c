// Package oracle is the exact, deliberately naive reference evaluator
// for Scrub's central query semantics. It materializes every event,
// evaluates selection, projection, the request-id equi-join, group-by,
// HAVING, ORDER BY and LIMIT with exact counts — no sketches, no
// incremental windowing, no sampling shortcuts, no bounded-state drops —
// and renders each window the way ScrubCentral would if it had infinite
// memory and the full event stream.
//
// The differential harness (internal/difftest) drives the production
// Engine and ShardedEngine over the same inputs and checks them against
// this package's output per contract class: exact paths row-for-row,
// sampled paths via confidence-interval coverage, sketch aggregates via
// their published guarantees. Clarity beats speed everywhere here: any
// cleverness shared with the engine under test would hide its bugs. What
// it does share with the system is named, because a bug there is wrong on
// both sides of every comparison: the planner's predicate split
// (ql.splitPredicate, read through the plan's HostPred and CentralPred),
// the expression compiler (expr.Compile) and, under it, the scalar helpers
// compareValue, eqValue, cmpValue and arithValue that the host's register
// program calls too, and the event model.
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strings"

	"scrub/internal/agg"
	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/ql"
)

// Event is one matched event as shipped to ScrubCentral, before any
// sampling: Values carries the projected user columns in the plan's
// Columns[TypeIdx] order (the transport.Tuple layout).
type Event struct {
	Host      string
	TypeIdx   int
	RequestID uint64
	TsNanos   int64
	Values    []event.Value
}

// Result is one window's exact answer.
type Result struct {
	Start, End int64
	Rows       [][]event.Value
	// AggExact holds each aggregate's exact value for ungrouped aggregate
	// queries (nil otherwise), index matching plan.Aggs: NaN when it is not
	// numeric or saw no input, COUNT_DISTINCT's exact distinct count.
	AggExact []float64
}

// evaluator is the compiled form of a plan, mirroring central's compile
// but rebuilt here so the oracle shares no evaluation shortcuts with the
// engine under test beyond the plan the planner split and the expression
// compiler, scalar helpers included (see the package comment).
type evaluator struct {
	plan        *central.Plan
	colIdx      []map[string]int
	groupEvals  []expr.Evaluator
	aggArgEvals []expr.Evaluator
	selectEvals []expr.Evaluator
	centralPred func(expr.Row) bool
	havingPred  func(expr.Row) bool
}

func compile(p *central.Plan) (*evaluator, error) {
	ev := &evaluator{plan: p}
	ev.colIdx = make([]map[string]int, len(p.Types))
	for i, cols := range p.Columns {
		m := make(map[string]int, len(cols))
		for j, name := range cols {
			m[name] = j
		}
		ev.colIdx[i] = m
	}
	var c compiler
	for _, g := range p.GroupBy {
		ev.groupEvals = append(ev.groupEvals, c.eval(g))
	}
	for _, a := range p.Aggs {
		switch {
		case a.Spec.Kind < agg.KindCountStar || a.Spec.Kind > agg.KindCountDistinct:
			return nil, fmt.Errorf("oracle: unknown aggregate kind %d", a.Spec.Kind)
		case a.Spec.Kind == agg.KindTopK && a.Spec.K <= 0:
			return nil, fmt.Errorf("oracle: TOP_K requires k > 0")
		}
		ev.aggArgEvals = append(ev.aggArgEvals, c.eval(a.Arg))
	}
	for _, s := range p.Select {
		ev.selectEvals = append(ev.selectEvals, c.eval(s.Expr))
	}
	ev.centralPred, ev.havingPred = c.pred(p.CentralPred), c.pred(p.Having)
	return ev, c.err
}

// compiler compiles expressions with expr.Compile, a nil node to nil, and
// keeps the first error.
type compiler struct{ err error }

func (c *compiler) eval(n expr.Node) expr.Evaluator {
	if n == nil || c.err != nil {
		return nil
	}
	e, err := expr.Compile(n)
	c.err = err
	return e
}

func (c *compiler) pred(n expr.Node) func(expr.Row) bool {
	if e := c.eval(n); e != nil {
		return expr.Predicate(e)
	}
	return nil
}

// --- row adapters (mirroring central's sideRow/joinRow/resultRow) ---

type eventRow struct {
	ev *evaluator
	e  *Event
}

func (r eventRow) Field(typ, name string) event.Value {
	if typ != "" && typ != r.ev.plan.Types[r.e.TypeIdx] {
		return event.Invalid
	}
	switch name {
	case event.FieldRequestID:
		return event.Int(int64(r.e.RequestID))
	case event.FieldTimestamp:
		return event.TimeNanos(r.e.TsNanos)
	}
	idx, ok := r.ev.colIdx[r.e.TypeIdx][name]
	if !ok || idx >= len(r.e.Values) {
		return event.Invalid
	}
	return r.e.Values[idx]
}

func (eventRow) Agg(int) event.Value { return event.Invalid }

type joinedRow struct {
	ev          *evaluator
	left, right *Event // sides 0 and 1
}

func (r joinedRow) Field(typ, name string) event.Value {
	switch typ {
	case r.ev.plan.Types[0]:
		return eventRow{ev: r.ev, e: r.left}.Field(typ, name)
	case r.ev.plan.Types[1]:
		return eventRow{ev: r.ev, e: r.right}.Field(typ, name)
	case "":
		if v := (eventRow{ev: r.ev, e: r.left}).Field("", name); v.IsValid() {
			return v
		}
		return eventRow{ev: r.ev, e: r.right}.Field("", name)
	default:
		return event.Invalid
	}
}

func (joinedRow) Agg(int) event.Value { return event.Invalid }

type groupRow struct {
	groupBy []expr.FieldRef
	keyVals []event.Value
	aggVals []event.Value
}

func (r groupRow) Field(typ, name string) event.Value {
	for i, g := range r.groupBy {
		if g.Name == name && (typ == "" || typ == g.Type) {
			return r.keyVals[i]
		}
	}
	return event.Invalid
}

func (r groupRow) Agg(i int) event.Value {
	if i < 0 || i >= len(r.aggVals) {
		return event.Invalid
	}
	return r.aggVals[i]
}

// --- exact aggregate state ---

// exactAgg keeps every input of one aggregate and computes the result
// from them when the window renders. Nothing is folded as it arrives, so
// the oracle shares no aggregate state or arithmetic with internal/agg,
// whose states the engine carves: COUNT(*) keeps every call, every other
// kind its non-NULL inputs (SQL NULL rules), and TOP_K and COUNT_DISTINCT
// count exactly where the engine keeps sketches.
type exactAgg struct {
	kind agg.Kind
	k    int
	in   []event.Value
}

func (a *exactAgg) add(v event.Value) {
	if v.IsValid() || a.kind == agg.KindCountStar {
		a.in = append(a.in, v)
	}
}

// result renders the exact value the way the engine renders the same
// aggregate, so exact-path rows compare directly: counts are ints; SUM is
// an int unless a float arrived; AVG is a float; MIN and MAX keep the
// first input and replace it only by a comparable better one; an
// aggregate other than a count with no (numeric, for SUM and AVG) input
// is NULL.
func (a *exactAgg) result() event.Value {
	switch a.kind {
	case agg.KindCountStar, agg.KindCount:
		return event.Int(int64(len(a.in)))
	case agg.KindSum, agg.KindAvg:
		var n int
		var isum int64
		var fsum float64
		float := false
		for _, v := range a.in {
			if i, ok := v.AsInt(); ok {
				n, isum, fsum = n+1, isum+i, fsum+float64(i)
			} else if f, ok := v.AsFloat(); ok {
				n, fsum, float = n+1, fsum+f, true
			}
		}
		switch {
		case n == 0:
			return event.Invalid
		case a.kind == agg.KindAvg:
			return event.Float(fsum / float64(n))
		case float:
			return event.Float(fsum)
		}
		return event.Int(isum)
	case agg.KindMin, agg.KindMax:
		best := event.Invalid
		for _, v := range a.in {
			c, ok := v.Compare(best)
			if !best.IsValid() || ok && (a.kind == agg.KindMin && c < 0 || a.kind == agg.KindMax && c > 0) {
				best = v
			}
		}
		return best
	case agg.KindTopK:
		entries := a.topEntries()
		vs := make([]event.Value, len(entries))
		for i, e := range entries {
			vs[i] = event.Str(fmt.Sprintf("%s=%d", e.item, e.count))
		}
		return event.List(event.KindString, vs...)
	default: // COUNT_DISTINCT: the input set, keyed by encoded value
		distinct := make(map[string]struct{})
		for _, v := range a.in {
			distinct[string(event.AppendValue(nil, v))] = struct{}{}
		}
		return event.Int(int64(len(distinct)))
	}
}

type itemCount struct {
	item  string
	count uint64
}

// topEntries counts each TOP_K input by its string form and keeps the k
// largest counts, ties by item.
func (a *exactAgg) topEntries() []itemCount {
	counts := make(map[string]uint64)
	for _, v := range a.in {
		counts[v.String()]++
	}
	var all []itemCount
	for it, c := range counts {
		all = append(all, itemCount{it, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].item < all[j].item
	})
	if a.k < len(all) {
		all = all[:a.k]
	}
	return all
}

// exact is the aggregate's exact value as a float: NaN when it is not
// numeric or saw no input.
func (a *exactAgg) exact() float64 {
	if f, ok := a.result().AsFloat(); ok {
		return f
	}
	return math.NaN()
}

// Input is how every caller builds Eval's input from logged events: each
// event of one of qp's types that the type's host predicate selects — the
// reference closure expr.Compile builds of it — projected to the host
// object's columns, in the order logged. It samples nothing and leaves no
// host out; which hosts' events to pass is the caller's decision. logged
// calls emit once per logged event, with the host that logged it ("" when
// that is not known).
func Input(qp *ql.Plan, logged func(emit func(host string, ev *event.Event)) error) ([]Event, error) {
	hqs := qp.HostQueries(0, 0, 0)
	var c compiler
	preds := make([]func(expr.Row) bool, len(hqs))
	for i, hq := range hqs {
		preds[i] = c.pred(hq.Pred)
	}
	if c.err != nil {
		return nil, c.err
	}
	var out []Event
	err := logged(func(host string, ev *event.Event) {
		for i, hq := range hqs {
			if hq.EventType != ev.Schema.Name() || preds[i] != nil && !preds[i](expr.EventRow{Event: ev}) {
				continue
			}
			e := Event{Host: host, TypeIdx: i, RequestID: ev.RequestID, TsNanos: ev.TimeNanos}
			for _, col := range hq.Columns {
				e.Values = append(e.Values, ev.Get(col))
			}
			out = append(out, e)
		}
	})
	return out, err
}

// --- window accumulation ---

type exactGroup struct {
	keyVals []event.Value
	aggs    []*exactAgg
}

// newGroup starts a group with one exact aggregate per plan aggregate.
func newGroup(p *central.Plan, keyVals []event.Value) *exactGroup {
	g := &exactGroup{keyVals: keyVals}
	for _, a := range p.Aggs {
		g.aggs = append(g.aggs, &exactAgg{kind: a.Spec.Kind, k: a.Spec.K})
	}
	return g
}

type windowAcc struct {
	start, end int64
	groups     map[string]*exactGroup
	rawRows    [][]event.Value
	// join sides by request id, in arrival order.
	sides map[uint64]*[2][]*Event
}

// Eval evaluates the plan exactly over the full matched event stream and
// returns one Result per window that received at least one in-span
// event, in start order. Events must be the *matched* stream — host-side
// selection already applied, no sampling — with projected values in plan
// column order: what Input builds.
func Eval(p central.Plan, events []Event) ([]Result, error) {
	if len(p.Types) == 0 || len(p.Types) > 2 {
		return nil, fmt.Errorf("oracle: plan must cover 1 or 2 types, got %d", len(p.Types))
	}
	if p.Window <= 0 {
		return nil, fmt.Errorf("oracle: window must be positive")
	}
	slide := p.Slide
	if slide == 0 {
		slide = p.Window
	}
	ev, err := compile(&p)
	if err != nil {
		return nil, err
	}

	size, sl := int64(p.Window), int64(slide)
	wins := make(map[int64]*windowAcc)

	accumulate := func(w *windowAcc, row expr.Row) {
		if !p.HasAgg() && !p.Grouped() {
			out := make([]event.Value, len(ev.selectEvals))
			for i, se := range ev.selectEvals {
				out[i] = se(row)
			}
			w.rawRows = append(w.rawRows, out)
			return
		}
		keyVals := make([]event.Value, len(ev.groupEvals))
		var enc []byte
		for i, ge := range ev.groupEvals {
			keyVals[i] = ge(row)
			enc = event.AppendValue(enc, keyVals[i])
		}
		key := string(enc)
		g := w.groups[key]
		if g == nil {
			g = newGroup(&p, keyVals)
			w.groups[key] = g
		}
		for i, a := range g.aggs {
			if ev.aggArgEvals[i] == nil {
				a.add(event.Bool(true)) // COUNT(*)
			} else {
				a.add(ev.aggArgEvals[i](row))
			}
		}
	}

	for i := range events {
		e := &events[i]
		if p.StartNanos != 0 && e.TsNanos < p.StartNanos {
			continue
		}
		if p.EndNanos != 0 && e.TsNanos >= p.EndNanos {
			continue
		}
		// Covering window starts, ascending (mirrors window.SlidingAssigner).
		latest := e.TsNanos - (e.TsNanos % sl)
		if e.TsNanos%sl < 0 {
			latest -= sl
		}
		for start := latest - size + sl; start <= latest; start += sl {
			w := wins[start]
			if w == nil {
				w = &windowAcc{start: start, end: start + size,
					groups: make(map[string]*exactGroup), sides: make(map[uint64]*[2][]*Event)}
				wins[start] = w
			}
			if !p.IsJoin() {
				if row := (eventRow{ev: ev, e: e}); ev.centralPred == nil || ev.centralPred(row) {
					accumulate(w, row)
				}
				continue
			}
			cell := w.sides[e.RequestID]
			if cell == nil {
				cell = &[2][]*Event{}
				w.sides[e.RequestID] = cell
			}
			cell[e.TypeIdx] = append(cell[e.TypeIdx], e)
		}
	}

	// Join windows: exact cross product per request id. Requests iterate
	// in sorted order and sides in arrival order — a deterministic
	// sequence (only float rounding could notice, and contracts compare
	// floats with tolerance).
	if p.IsJoin() {
		for _, w := range wins {
			reqs := make([]uint64, 0, len(w.sides))
			for req := range w.sides {
				reqs = append(reqs, req)
			}
			sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
			for _, req := range reqs {
				cell := w.sides[req]
				for _, l := range cell[0] {
					for _, r := range cell[1] {
						if row := (joinedRow{ev: ev, left: l, right: r}); ev.centralPred == nil || ev.centralPred(row) {
							accumulate(w, row)
						}
					}
				}
			}
		}
	}

	starts := make([]int64, 0, len(wins))
	for s := range wins {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := make([]Result, 0, len(starts))
	for _, s := range starts {
		out = append(out, render(&p, ev, wins[s]))
	}
	return out, nil
}

// render turns a window accumulator into the exact Result, mirroring the
// engine's render pipeline (group order, empty-window semantics, HAVING,
// ORDER BY with full-row tie-break, LIMIT) without any scale-up.
func render(p *central.Plan, ev *evaluator, w *windowAcc) Result {
	res := Result{Start: w.start, End: w.end}

	if !p.HasAgg() && !p.Grouped() {
		res.Rows = w.rawRows
	} else {
		keys := make([]string, 0, len(w.groups))
		for k := range w.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) == 0 && p.HasAgg() && !p.Grouped() {
			w.groups[""] = newGroup(p, nil)
			keys = append(keys, "")
		}
		for _, k := range keys {
			g := w.groups[k]
			aggVals := make([]event.Value, len(g.aggs))
			for i, a := range g.aggs {
				aggVals[i] = a.result()
			}
			if !p.Grouped() {
				res.AggExact = make([]float64, len(g.aggs))
				for i, a := range g.aggs {
					res.AggExact[i] = a.exact()
				}
			}
			row := groupRow{groupBy: p.GroupBy, keyVals: g.keyVals, aggVals: aggVals}
			if ev.havingPred != nil && !ev.havingPred(row) {
				continue
			}
			out := make([]event.Value, len(ev.selectEvals))
			for i, se := range ev.selectEvals {
				out[i] = se(row)
			}
			res.Rows = append(res.Rows, out)
		}
	}

	// Deterministic ordering, identical to the engine's orderAndLimit.
	if len(p.OrderBy) > 0 {
		sort.Slice(res.Rows, func(i, j int) bool {
			return compareOrdered(p, res.Rows[i], res.Rows[j]) < 0
		})
	} else if !p.HasAgg() && !p.Grouped() {
		sort.Slice(res.Rows, func(i, j int) bool {
			return compareRows(res.Rows[i], res.Rows[j]) < 0
		})
	}
	if p.Limit > 0 && len(res.Rows) > p.Limit {
		res.Rows = res.Rows[:p.Limit]
	}
	return res
}

// --- deterministic row comparison (the engine's contract, restated) ---

func compareValues(a, b event.Value) int {
	if c, ok := a.Compare(b); ok {
		return c
	}
	return strings.Compare(a.String(), b.String())
}

func compareRows(a, b []event.Value) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if c := compareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

func compareOrdered(p *central.Plan, a, b []event.Value) int {
	for _, key := range p.OrderBy {
		if key.Col >= len(a) || key.Col >= len(b) {
			continue
		}
		if c := compareValues(a[key.Col], b[key.Col]); c != 0 && key.Desc {
			return -c
		} else if c != 0 {
			return c
		}
	}
	return compareRows(a, b)
}
