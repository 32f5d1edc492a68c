// Package central implements ScrubCentral, the dedicated facility where
// all joins, group-bys and aggregations run (paper §4). Hosts ship only
// selected, projected, sampled tuples; everything expensive happens here,
// off the application machines — the inversion of classical "move the
// query to the data" optimization that defines Scrub.
package central

import (
	"fmt"
	"time"

	"scrub/internal/agg"
	"scrub/internal/expr"
	"scrub/internal/governor"
	"scrub/internal/ql"
)

// Plan is the central-side query object the query server installs: the
// analyzed query, embedded by value, plus only what the deployment
// resolved for it. fillDefaults therefore never writes into a caller's
// ql.Plan. Central's Columns and its IsJoin and HasAgg methods shadow the
// promoted ql.Plan names: central reads a side's columns by index, and a
// plan built in a test may carry the layout alone.
type Plan struct {
	ql.Plan

	QueryID uint64
	// Text is the original query source, carried so a coordinator can
	// re-distribute the query to shard processes (which re-analyze it
	// against their own catalog). Empty for in-process executors; never
	// consulted by the engines themselves.
	Text    string
	Types   []string   // event types in FROM order (1 or 2)
	Columns [][]string // per type: projected column names, HostQuery order

	// Lateness, when set, is how far past a window's end both the slowest
	// live stream's event time and the wall clock must be before it closes.
	// Unset (0): one slide, at most 2 s, and 2 s (closeBounds).
	Lateness time.Duration

	// StartNanos/EndNanos are the span resolved at submission. With
	// REPLAY, hosts with a record stream ship history from
	// [StartNanos-Replay, StartNanos) before going live, so the span
	// filter must accept event times that far before the start and window
	// closing must wait for the history (the replay hold).
	StartNanos int64
	EndNanos   int64

	// Estimator inputs (paper Eq. 1–3) beside the query's own event
	// sampling rate: how many hosts matched the target spec (N) and how
	// many were activated after host sampling (n).
	TotalHosts   int
	SampledHosts int

	// maxRawRows bounds collected rows per window for non-aggregate
	// queries; maxJoinPending bounds buffered join tuples per window.
	// Overflow is counted and dropped — bounded state, always. Only
	// central's own tests set them below their defaults.
	maxRawRows     int
	maxJoinPending int

	// aggLayout is where Aggs' states live in a window's agg.Slab
	// (checkAggs).
	aggLayout *agg.Layout
	// moments is how many moments a window keeps per host for the
	// Eq. 1–3 bounds: one per aggregate when the plan is ungrouped, not a
	// join, and has a scalable aggregate, else none (checkAggs).
	moments int
}

// FromPlan assembles a central Plan from an analyzed query.
func FromPlan(p *ql.Plan, queryID uint64, startNanos, endNanos int64, totalHosts, sampledHosts int) Plan {
	types := p.TypeNames()
	cols := make([][]string, len(types))
	for i, t := range types {
		cols[i] = p.Columns[t]
	}
	return Plan{
		Plan:         *p,
		QueryID:      queryID,
		Types:        types,
		Columns:      cols,
		StartNanos:   startNanos,
		EndNanos:     endNanos,
		TotalHosts:   totalHosts,
		SampledHosts: sampledHosts,
	}
}

func (p *Plan) fillDefaults() error {
	if p.QueryID == 0 {
		return fmt.Errorf("central: zero query id")
	}
	if len(p.Types) == 0 || len(p.Types) > 2 {
		return fmt.Errorf("central: plan must cover 1 or 2 event types, got %d", len(p.Types))
	}
	if len(p.Columns) != len(p.Types) {
		return fmt.Errorf("central: %d column sets for %d types", len(p.Columns), len(p.Types))
	}
	if len(p.Select) == 0 {
		return fmt.Errorf("central: empty select list")
	}
	if p.Window <= 0 {
		return fmt.Errorf("central: window must be positive")
	}
	if p.Slide == 0 {
		p.Slide = p.Window
	}
	if p.Slide < 0 || p.Slide > p.Window || p.Window%p.Slide != 0 {
		return fmt.Errorf("central: slide %v must divide the window %v", p.Slide, p.Window)
	}
	if slack, _ := p.closeBounds(); slack < 0 {
		return fmt.Errorf("central: negative lateness")
	}
	if p.Replay < 0 {
		return fmt.Errorf("central: negative replay")
	}
	if p.SampleEvents <= 0 || p.SampleEvents > 1 {
		p.SampleEvents = 1
	}
	if p.TotalHosts < p.SampledHosts {
		return fmt.Errorf("central: total hosts %d < sampled %d", p.TotalHosts, p.SampledHosts)
	}
	if p.maxRawRows <= 0 {
		p.maxRawRows = 100000
	}
	if p.maxJoinPending <= 0 {
		p.maxJoinPending = 1 << 20
	}
	return nil
}

// defaultHold is the wall-clock wait of a plan without a declared
// Lateness: only the wall clock closes a window a live but quiet stream
// is in, and its partial chunk may sit on its host for a flush interval.
const defaultHold = 2 * time.Second

// closeBounds is the one reader of Lateness: a window closes once the
// slowest live stream's event time is slack past its end, or the wall
// clock hold past it. A declared lateness is both; unset, slack is one
// slide — for disorder within a stream and streams that started apart —
// capped at the hold. fillDefaults rejects a negative slack.
func (p *Plan) closeBounds() (slack, hold time.Duration) {
	if p.Lateness != 0 {
		return p.Lateness, p.Lateness
	}
	return min(p.Slide, defaultHold), defaultHold
}

// DataStartNanos returns the earliest event time the query accepts:
// the span start, extended back by the replay span when the query
// replays history. A zero span start accepts any event time either way.
func (p *Plan) DataStartNanos() int64 {
	if p.StartNanos == 0 || p.Replay <= 0 {
		return p.StartNanos
	}
	return p.StartNanos - int64(p.Replay)
}

// IsJoin reports whether the plan joins two event types.
func (p *Plan) IsJoin() bool { return len(p.Types) == 2 }

// HasAgg reports whether the plan aggregates.
func (p *Plan) HasAgg() bool { return len(p.Aggs) > 0 }

// Grouped reports whether results are grouped (explicitly or because an
// ungrouped aggregate forms one global group).
func (p *Plan) Grouped() bool { return len(p.GroupBy) > 0 }

// scaleFactor is the Horvitz-Thompson factor applied to scalable
// aggregates: (N/n) for host sampling times (1/q) for event sampling.
func (p *Plan) scaleFactor() float64 {
	f := 1.0
	if p.SampledHosts > 0 && p.TotalHosts > p.SampledHosts {
		f *= float64(p.TotalHosts) / float64(p.SampledHosts)
	}
	if p.SampleEvents > 0 && p.SampleEvents < 1 {
		f /= p.SampleEvents
	}
	return f
}

// compiled is a plan's expressions as nodes of one register program, so
// what they share (a group key that is also a select item) is computed
// once per row. bind reads fields from (side, column) slots of the plan's
// projected layout, keys from a closed window's group key values. All are
// immutable and shared by every kernel and the merger, each evaluating
// through a Ctx of its own.
type compiled struct {
	prog    *expr.Program
	bind    *expr.Binding
	keys    *expr.Binding
	groups  []int32
	aggArgs []int32 // -1 for COUNT(*)
	selects []int32
	pred    int32 // -1 when no residual predicate
	having  int32 // -1 when no HAVING
	// directAgg[i] >= 0 when select column i is exactly AggRef #n —
	// those columns carry estimator error bounds.
	directAgg []int
	// span[side] is the window length when bind reads that side's event
	// time, else 0: what a buffered join run keeps of it (Engine.buffer).
	span [2]uint64
}

func compile(p *Plan) (*compiled, error) {
	b := expr.NewProgramBuilder()
	var err error
	intern := func(n expr.Node) int32 {
		if n == nil || err != nil {
			return -1
		}
		var id int32
		id, err = b.Intern(n)
		return id
	}
	c := &compiled{}
	for _, g := range p.GroupBy {
		c.groups = append(c.groups, intern(g))
	}
	for _, a := range p.Aggs {
		c.aggArgs = append(c.aggArgs, intern(a.Arg))
	}
	for _, s := range p.Select {
		c.selects = append(c.selects, intern(s.Expr))
		direct := -1
		if ar, ok := s.Expr.(expr.AggRef); ok {
			direct = ar.Index
		}
		c.directAgg = append(c.directAgg, direct)
	}
	c.pred, c.having = intern(p.CentralPred), intern(p.Having)
	if err != nil {
		return nil, err
	}
	c.prog = b.Build()
	c.bind = c.prog.BindTuples(p.Types, p.Columns)
	c.keys = c.prog.BindKeys(p.GroupBy)
	for side := range p.Types {
		if c.bind.ReadsTime(side) {
			c.span[side] = uint64(p.Window)
		}
		if p.IsJoin() && c.span[side] > maxTimedSpan {
			return nil, fmt.Errorf("central: a join that reads %s.ts keeps event times in windows of at most %v, not %v", p.Types[side], time.Duration(maxTimedSpan), p.Window)
		}
	}
	return c, nil
}

// maxTimedSpan is the longest window a buffered join run keeps an event
// time in: its tag, (w − 1)·span + time − window start, is below
// 64·span for a weight w ≤ 1/governor.MinMult = 64, and must fit above
// the run's runFlags flag bits in the 63 bits of a slab.Index header's
// owner (Engine.buffer).
const maxTimedSpan = 1 << (63 - runFlags) / (1 / governor.MinMult)

// checkAggs lays out the plan's aggregates for the windows' state slabs,
// so a bad spec fails the query at start, not at the first tuple, and
// sets how many moments a window keeps per host. A join keeps none: a
// request's pairs are kept together, not one by one as the moments assume.
func (p *Plan) checkAggs() (err error) {
	specs := make([]agg.Spec, len(p.Aggs))
	for i, a := range p.Aggs {
		specs[i] = a.Spec
		if a.Spec.Scalable() && !p.Grouped() && !p.IsJoin() {
			p.moments = len(p.Aggs)
		}
	}
	p.aggLayout, err = agg.NewLayout(specs)
	return err
}
