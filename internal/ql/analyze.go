package ql

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"time"

	"scrub/internal/agg"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/transport"
)

// SemanticError is a validation failure (the query parsed, but is not a
// legal Scrub query).
type SemanticError struct{ Msg string }

func (e *SemanticError) Error() string { return "ql: " + e.Msg }

func semf(format string, args ...any) error {
	return &SemanticError{Msg: fmt.Sprintf(format, args...)}
}

// AggPlan is one aggregate instance in a plan: its spec and its (checked,
// qualified) input expression. Arg is nil for COUNT(*).
type AggPlan struct {
	Spec agg.Spec
	Arg  expr.Node
}

// PlannedItem is one output column: its checked expression (with aggregate
// calls replaced by AggRefs), display label, and static result kind.
type PlannedItem struct {
	Expr  expr.Node
	Label string
	Kind  event.Kind
}

// Labels returns the result column headers of a select list.
func Labels(items []PlannedItem) []string {
	out := make([]string, len(items))
	for i, item := range items {
		out[i] = item.Label
	}
	return out
}

// Plan is a validated query split per the paper's execution model: the
// host side gets per-event-type selection predicates, projection column
// lists and the event sampling rate; ScrubCentral gets the join, group-by,
// aggregation, residual cross-type predicate, and windowing.
type Plan struct {
	Query   *Query
	Schemas []*event.Schema // 1 or 2, in FROM order

	Select  []PlannedItem
	Aggs    []AggPlan
	GroupBy []expr.FieldRef
	HasAgg  bool
	// Having filters groups at ScrubCentral after aggregation; its
	// AggRefs index into Aggs like the select items'.
	Having expr.Node
	// OrderBy/Limit order and truncate each emitted window's rows.
	OrderBy []OrderKey
	Limit   int

	// HostPred maps event type → the conjunction of WHERE conjuncts that
	// reference only that type (plus constant conjuncts). Nil means "ship
	// every event of that type".
	HostPred map[string]expr.Node
	// CentralPred holds conjuncts that span both join sides; evaluated at
	// ScrubCentral after the join. Nil for single-type queries.
	CentralPred expr.Node
	// Columns maps event type → the user fields the host must project and
	// ship (system fields always travel).
	Columns map[string][]string

	Window time.Duration
	Slide  time.Duration // == Window for tumbling windows
	Span   time.Duration
	// Replay asks recording hosts to ship this much pre-start history
	// through the pipeline before going live (REPLAY clause); 0 disables.
	Replay time.Duration
	// StartAt/StartIn copied from the query (resolution to absolute time
	// happens at submission in the query server).
	StartAt time.Time
	StartIn time.Duration

	Target       TargetSpec
	SampleHosts  float64 // 1.0 when unset
	SampleEvents float64 // 1.0 when unset

	// Host-impact budget (BUDGET clause); 0 means unlimited. Enforced by
	// the per-host governor: downsample first, then shed with an explicit
	// BudgetShed marker.
	BudgetCPUPct      float64
	BudgetBytesPerSec float64
}

// IsJoin reports whether the plan reads two event types.
func (p *Plan) IsJoin() bool { return len(p.Schemas) == 2 }

// TypeNames returns the event-type names in FROM order.
func (p *Plan) TypeNames() []string {
	names := make([]string, len(p.Schemas))
	for i, s := range p.Schemas {
		names[i] = s.Name()
	}
	return names
}

// HostQueries builds the plan's host half for query qid over the span
// [startNanos, endNanos): one query object per FROM type, in FROM order,
// carrying that type's selection and projection, the event-sampling rate,
// the budget and the replay span. The shard epoch is left to the caller.
func (p *Plan) HostQueries(qid uint64, startNanos, endNanos int64) []transport.HostQuery {
	out := make([]transport.HostQuery, len(p.Schemas))
	for i, s := range p.Schemas {
		typ := s.Name()
		out[i] = transport.HostQuery{
			QueryID:           qid,
			EventType:         typ,
			TypeIdx:           uint8(i),
			Pred:              p.HostPred[typ],
			Columns:           p.Columns[typ],
			SampleEvents:      p.SampleEvents,
			SampleByRequest:   p.IsJoin(),
			StartNanos:        startNanos,
			EndNanos:          endNanos,
			BudgetCPUPct:      p.BudgetCPUPct,
			BudgetBytesPerSec: p.BudgetBytesPerSec,
			ReplayNanos:       int64(p.Replay),
		}
	}
	return out
}

// Analyze validates a parsed query against the catalog and produces the
// split plan. It enforces the language restrictions the paper calls out:
// at most two event types, joined implicitly (and only) on the request
// identifier; aggregates only in the select list; sampling rates in (0,1].
func Analyze(q *Query, cat *event.Catalog) (*Plan, error) {
	if len(q.Select) == 0 {
		return nil, semf("empty select list")
	}
	switch len(q.From) {
	case 1, 2:
	case 0:
		return nil, semf("no event types in FROM")
	default:
		return nil, semf("FROM lists %d event types; Scrub restricts joins to equi-joins on the request identifier between two event types", len(q.From))
	}
	if q.From[0] == "" || (len(q.From) == 2 && q.From[0] == q.From[1]) {
		return nil, semf("FROM may not repeat an event type (self-joins are not supported)")
	}

	p := &Plan{
		Query:             q,
		Window:            q.Window,
		Slide:             q.Slide,
		Span:              q.Span,
		Replay:            q.Replay,
		StartAt:           q.StartAt,
		StartIn:           q.StartIn,
		Target:            q.Target,
		SampleHosts:       q.SampleHosts,
		SampleEvents:      q.SampleEvents,
		BudgetCPUPct:      q.BudgetCPUPct,
		BudgetBytesPerSec: q.BudgetBytesPerSec,
		HostPred:          make(map[string]expr.Node),
		Columns:           make(map[string][]string),
	}
	if q.BudgetCPUPct < 0 || q.BudgetBytesPerSec < 0 {
		return nil, semf("budget values must be positive")
	}
	p.Schemas = make([]*event.Schema, 0, len(q.From))
	for _, name := range q.From {
		s, ok := cat.Lookup(name)
		if !ok {
			return nil, semf("unknown event type %q (registered: %s)", name, strings.Join(cat.Names(), ", "))
		}
		p.Schemas = append(p.Schemas, s)
	}
	res := expr.SchemaResolver{Schemas: p.Schemas}

	// Defaults and limits for window and span.
	if p.Window == 0 {
		p.Window = DefaultWindow
	}
	if p.Window <= 0 {
		return nil, semf("window must be positive")
	}
	if p.Slide == 0 {
		p.Slide = p.Window
	}
	if p.Slide < 0 || p.Slide > p.Window {
		return nil, semf("slide must be in (0, window]")
	}
	if p.Window%p.Slide != 0 {
		return nil, semf("slide %s must divide the window %s evenly", p.Slide, p.Window)
	}
	if p.Span == 0 {
		p.Span = DefaultSpan
	}
	if p.Span <= 0 {
		return nil, semf("duration must be positive")
	}
	if p.Span > MaxSpan {
		return nil, semf("duration %s exceeds the maximum query span %s", p.Span, MaxSpan)
	}
	if p.Replay < 0 {
		return nil, semf("replay must be positive")
	}
	if p.Replay > MaxSpan {
		return nil, semf("replay %s exceeds the maximum query span %s", p.Replay, MaxSpan)
	}
	if p.SampleHosts == 0 {
		p.SampleHosts = 1
	}
	if p.SampleEvents == 0 {
		p.SampleEvents = 1
	}

	// Rewrite select items: aggregate calls → AggRefs; then type-check.
	p.Select = make([]PlannedItem, 0, len(q.Select))
	for _, item := range q.Select {
		rewritten, err := p.rewriteAggregates(item.Expr, false)
		if err != nil {
			return nil, err
		}
		checked, kind, err := expr.Check(rewritten, res)
		if err != nil {
			return nil, &SemanticError{Msg: err.Error()}
		}
		p.Select = append(p.Select, PlannedItem{Expr: checked, Label: item.Label(), Kind: kind})
	}
	p.HasAgg = len(p.Aggs) > 0

	// Check resolved field references inside AggRef args in place in the
	// select trees; sync those resolved args back into the plan's agg list
	// (ScrubCentral compiles aggregate inputs from p.Aggs).
	for _, item := range p.Select {
		expr.Walk(item.Expr, func(n expr.Node) bool {
			if a, ok := n.(expr.AggRef); ok && a.Index < len(p.Aggs) {
				p.Aggs[a.Index] = AggPlan{Spec: a.Spec, Arg: a.Arg}
			}
			return true
		})
	}

	// Resolve group-by fields.
	for _, g := range q.GroupBy {
		rg, _, err := res.ResolveField(g)
		if err != nil {
			return nil, &SemanticError{Msg: err.Error()}
		}
		if slices.Contains(p.GroupBy, rg) {
			return nil, semf("duplicate group-by field %s", rg)
		}
		p.GroupBy = append(p.GroupBy, rg)
	}

	// HAVING: rewrite its aggregates into the shared agg list, then
	// type-check. Only meaningful for aggregate/grouped queries.
	if q.Having != nil {
		rewritten, err := p.rewriteAggregates(q.Having, false)
		if err != nil {
			return nil, err
		}
		checked, kind, err := expr.Check(rewritten, res)
		if err != nil {
			return nil, &SemanticError{Msg: err.Error()}
		}
		if kind != event.KindBool {
			return nil, semf("HAVING must be a boolean predicate, got %s", kind)
		}
		p.Having = checked
		p.HasAgg = len(p.Aggs) > 0
		if !p.HasAgg && len(p.GroupBy) == 0 {
			return nil, semf("HAVING requires aggregates or GROUP BY")
		}
		// Sync any aggregates HAVING introduced (same pass as the select
		// items above).
		expr.Walk(p.Having, func(n expr.Node) bool {
			if a, ok := n.(expr.AggRef); ok && a.Index < len(p.Aggs) {
				p.Aggs[a.Index] = AggPlan{Spec: a.Spec, Arg: a.Arg}
			}
			return true
		})
	}

	// SQL aggregation rule: with aggregates or grouping, every bare field
	// in the select list (and HAVING) must be a group-by key.
	if p.HasAgg || len(p.GroupBy) > 0 {
		for _, item := range p.Select {
			if err := p.checkGrouped(item.Expr); err != nil {
				return nil, err
			}
		}
		if p.Having != nil {
			if err := p.checkGrouped(p.Having); err != nil {
				return nil, err
			}
		}
	}

	// ORDER BY keys resolve against the select list: a 1-based ordinal or
	// a column label (alias or expression text).
	for _, raw := range q.OrderByRaw {
		key := OrderKey{Desc: raw.Desc}
		switch {
		case raw.Ordinal > 0:
			if raw.Ordinal > len(p.Select) {
				return nil, semf("ORDER BY ordinal %d exceeds the %d select columns", raw.Ordinal, len(p.Select))
			}
			key.Col = raw.Ordinal - 1
		default:
			found := -1
			for i, item := range p.Select {
				if item.Label == raw.Label {
					found = i
					break
				}
			}
			if found < 0 {
				return nil, semf("ORDER BY column %q is not in the select list", raw.Label)
			}
			key.Col = found
		}
		p.OrderBy = append(p.OrderBy, key)
	}
	p.Limit = q.Limit

	// WHERE: no aggregates, must be boolean.
	if q.Where != nil {
		if expr.HasAggregate(q.Where) {
			return nil, semf("aggregates are not allowed in WHERE")
		}
		checked, kind, err := expr.Check(q.Where, res)
		if err != nil {
			return nil, &SemanticError{Msg: err.Error()}
		}
		if kind != event.KindBool {
			return nil, semf("WHERE must be a boolean predicate, got %s", kind)
		}
		p.splitPredicate(checked)
	}

	p.computeColumns()
	return p, nil
}

// rewriteAggregates replaces aggregate Calls with AggRefs, appending to
// p.Aggs. inAgg guards against nesting.
func (p *Plan) rewriteAggregates(n expr.Node, inAgg bool) (expr.Node, error) {
	switch t := n.(type) {
	case expr.Call:
		kind, ok := agg.ParseKind(t.Name)
		if !ok {
			return nil, semf("unknown function %q", t.Name)
		}
		if inAgg {
			return nil, semf("aggregates cannot be nested")
		}
		spec := agg.Spec{Kind: kind}
		var arg expr.Node
		switch kind {
		case agg.KindCount:
			if t.Star {
				spec.Kind = agg.KindCountStar
			} else {
				if len(t.Args) != 1 {
					return nil, semf("COUNT takes one argument or *")
				}
				arg = t.Args[0]
			}
		case agg.KindTopK:
			if t.Star || len(t.Args) != 2 {
				return nil, semf("TOP_K takes (expression, k)")
			}
			kLit, ok := t.Args[1].(expr.Lit)
			if !ok {
				return nil, semf("TOP_K k must be an integer literal")
			}
			kv, ok := kLit.Val.AsInt()
			if !ok || kv < 1 || kv > 10000 {
				return nil, semf("TOP_K k must be an integer in [1, 10000]")
			}
			spec.K = int(kv)
			arg = t.Args[0]
		default:
			if t.Star || len(t.Args) != 1 {
				return nil, semf("%s takes exactly one argument", strings.ToUpper(t.Name))
			}
			arg = t.Args[0]
		}
		if arg != nil {
			ra, err := p.rewriteAggregates(arg, true)
			if err != nil {
				return nil, err
			}
			if expr.HasAggregate(ra) {
				return nil, semf("aggregates cannot be nested")
			}
			arg = ra
		}
		ref := expr.AggRef{Index: len(p.Aggs), Spec: spec, Arg: arg}
		p.Aggs = append(p.Aggs, AggPlan{Spec: spec, Arg: arg})
		return ref, nil

	case expr.Unary:
		x, err := p.rewriteAggregates(t.X, inAgg)
		if err != nil {
			return nil, err
		}
		t.X = x
		return t, nil
	case expr.Binary:
		l, err := p.rewriteAggregates(t.L, inAgg)
		if err != nil {
			return nil, err
		}
		r, err := p.rewriteAggregates(t.R, inAgg)
		if err != nil {
			return nil, err
		}
		t.L, t.R = l, r
		return t, nil
	case expr.In:
		x, err := p.rewriteAggregates(t.X, inAgg)
		if err != nil {
			return nil, err
		}
		t.X = x
		for i, e := range t.List {
			re, err := p.rewriteAggregates(e, inAgg)
			if err != nil {
				return nil, err
			}
			t.List[i] = re
		}
		return t, nil
	default:
		return n, nil
	}
}

// checkGrouped verifies every bare field reference (outside aggregate
// arguments) is a group-by key. The plan's AggPlan args were recorded
// before Check resolved the select items, so compare by resolved refs.
func (p *Plan) checkGrouped(n expr.Node) error {
	var bad *expr.FieldRef
	var walk func(expr.Node, bool)
	walk = func(n expr.Node, inAgg bool) {
		switch t := n.(type) {
		case expr.FieldRef:
			if !inAgg && !slices.Contains(p.GroupBy, t) && bad == nil {
				f := t
				bad = &f
			}
		case expr.Unary:
			walk(t.X, inAgg)
		case expr.Binary:
			walk(t.L, inAgg)
			walk(t.R, inAgg)
		case expr.In:
			walk(t.X, inAgg)
			for _, e := range t.List {
				walk(e, inAgg)
			}
		case expr.AggRef:
			if t.Arg != nil {
				walk(t.Arg, true)
			}
		}
	}
	walk(n, false)
	if bad != nil {
		return semf("field %s must appear in GROUP BY or inside an aggregate", bad)
	}
	return nil
}

// splitPredicate distributes WHERE conjuncts: single-type conjuncts run on
// the hosts of that type (paper: selection happens on the host); conjuncts
// referencing both join sides run at ScrubCentral after the join. Constant
// conjuncts run on every host. Each side's conjuncts are AND-ed left to
// right in the order WHERE lists them.
func (p *Plan) splitPredicate(w expr.Node) {
	var host [2]expr.Node
	p.splitConjuncts(w, host[:len(p.Schemas)])
	for i, s := range p.Schemas {
		if host[i] != nil {
			p.HostPred[s.Name()] = host[i]
		}
	}
}

// splitConjuncts adds each conjunct of n to the host predicate of the one
// schema it references (of every schema, when it references none) or to
// the central one.
func (p *Plan) splitConjuncts(n expr.Node, host []expr.Node) {
	if b, ok := n.(expr.Binary); ok && b.Op == expr.OpAnd {
		p.splitConjuncts(b.L, host)
		p.splitConjuncts(b.R, host)
		return
	}
	switch refs := p.refSchemas(n); {
	case refs == 0:
		for i := range host {
			host[i] = and(host[i], n)
		}
	case refs&(refs-1) == 0:
		i := bits.TrailingZeros8(refs)
		host[i] = and(host[i], n)
	default:
		p.CentralPred = and(p.CentralPred, n)
	}
}

func and(l, r expr.Node) expr.Node {
	if l == nil {
		return r
	}
	return expr.Binary{Op: expr.OpAnd, L: l, R: r}
}

// refSchemas returns the set of p.Schemas that n's field references name,
// schema i as bit i (references are already qualified by Check).
func (p *Plan) refSchemas(n expr.Node) uint8 {
	var set uint8
	expr.Walk(n, func(x expr.Node) bool {
		if f, ok := x.(expr.FieldRef); ok {
			if i := p.schemaIndex(f.Type); i >= 0 {
				set |= 1 << i
			}
		}
		return true
	})
	return set
}

// schemaIndex is the position in p.Schemas of the schema named typ, -1
// when none is.
func (p *Plan) schemaIndex(typ string) int {
	return slices.IndexFunc(p.Schemas, func(s *event.Schema) bool { return s.Name() == typ })
}

// computeColumns derives the per-type projection sets: every user field
// the central side needs — select items, aggregate inputs, group-by keys,
// and the residual central predicate. Host predicate fields are NOT
// shipped unless needed elsewhere; they are consumed on the host.
func (p *Plan) computeColumns() {
	// need[i] marks the fields of p.Schemas[i] that ship.
	var need [2][]bool
	for i, s := range p.Schemas {
		need[i] = make([]bool, s.NumFields())
	}
	mark := func(n expr.Node) {
		expr.Walk(n, func(x expr.Node) bool {
			switch t := x.(type) {
			case expr.FieldRef:
				if i := p.schemaIndex(t.Type); i >= 0 && !event.IsSystemField(t.Name) {
					if j := p.Schemas[i].FieldIndex(t.Name); j >= 0 {
						need[i][j] = true
					}
				}
			case expr.AggRef:
				return false // its input is one of p.Aggs
			}
			return true
		})
	}
	for _, item := range p.Select {
		mark(item.Expr)
	}
	for _, a := range p.Aggs {
		mark(a.Arg)
	}
	for _, g := range p.GroupBy {
		mark(g)
	}
	mark(p.CentralPred)

	for i, s := range p.Schemas {
		// Keep schema order for deterministic plans.
		var cols []string
		for j, ok := range need[i] {
			if ok {
				cols = append(cols, s.Field(j).Name)
			}
		}
		p.Columns[s.Name()] = cols
	}
}
