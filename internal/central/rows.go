package central

import (
	"strings"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/transport"
)

// tupleView is one tuple as the evaluators see it: a shipped tuple of the
// batch being applied, or a buffered join tuple read back from the
// window's slabs.
type tupleView struct {
	req  uint64
	ts   int64
	vals []event.Value
}

func viewOf(t *transport.Tuple) tupleView {
	return tupleView{req: t.RequestID, ts: t.TsNanos, vals: t.Values}
}

// field resolves a (qualified) field reference against one side's tuple.
// Lookups use the per-type column index built at plan compile time.
func (c *compiled) field(types []string, typeIdx int, t *tupleView, typ, name string) event.Value {
	if typ != "" && typ != types[typeIdx] {
		return event.Invalid
	}
	switch name {
	case event.FieldRequestID:
		return event.Int(int64(t.req))
	case event.FieldTimestamp:
		return event.TimeNanos(t.ts)
	}
	idx, ok := c.colIdx[typeIdx][name]
	if !ok || idx >= len(t.vals) {
		return event.Invalid
	}
	return t.vals[idx]
}

// sideRow adapts a single shipped tuple as an expr.Row. Each query owns
// one, refilled per tuple and handed to the evaluators by pointer, so the
// apply path boxes no row.
type sideRow struct {
	c       *compiled
	types   []string
	typeIdx int
	t       tupleView
}

// Field implements expr.Row.
func (r *sideRow) Field(typ, name string) event.Value {
	return r.c.field(r.types, r.typeIdx, &r.t, typ, name)
}

// Agg implements expr.Row; tuples carry no aggregates.
func (*sideRow) Agg(int) event.Value { return event.Invalid }

// joinRow adapts a joined tuple pair, likewise one per query. Qualified
// lookups pick the side by type; unqualified lookups resolve against side
// 0 first (matching the resolver's determinism for system fields — user
// fields were qualified during validation).
type joinRow struct {
	c     *compiled
	types []string
	sides [2]tupleView
}

// Field implements expr.Row.
func (r *joinRow) Field(typ, name string) event.Value {
	switch typ {
	case r.types[0]:
		return r.c.field(r.types, 0, &r.sides[0], typ, name)
	case r.types[1]:
		return r.c.field(r.types, 1, &r.sides[1], typ, name)
	case "":
		if v := r.c.field(r.types, 0, &r.sides[0], "", name); v.IsValid() {
			return v
		}
		return r.c.field(r.types, 1, &r.sides[1], "", name)
	default:
		return event.Invalid
	}
}

// Agg implements expr.Row.
func (*joinRow) Agg(int) event.Value { return event.Invalid }

// resultRow is the evaluation context when a window closes: group-by key
// values for field references, scaled aggregate results for AggRefs.
type resultRow struct {
	groupBy []expr.FieldRef
	keyVals []event.Value
	aggVals []event.Value
}

// Field implements expr.Row: only group-by keys are addressable in result
// expressions (enforced at validation).
func (r *resultRow) Field(typ, name string) event.Value {
	for i, g := range r.groupBy {
		if g.Name == name && (typ == "" || typ == g.Type) {
			return r.keyVals[i]
		}
	}
	return event.Invalid
}

// Agg implements expr.Row.
func (r *resultRow) Agg(i int) event.Value {
	if i < 0 || i >= len(r.aggVals) {
		return event.Invalid
	}
	return r.aggVals[i]
}

// compareValues totally orders two result values: Value.Compare when the
// kinds allow it, else the string forms. Used for deterministic result
// ordering — a total order is required so ORDER BY ties and raw-row
// output are reproducible across runs and across the single-node and
// sharded engines.
func compareValues(a, b event.Value) int {
	if c, ok := a.Compare(b); ok {
		return c
	}
	return strings.Compare(a.String(), b.String())
}

// compareRows totally orders two result rows column by column. Shorter
// rows (never produced by one plan, but kept total for safety) sort
// first.
func compareRows(a, b []event.Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := compareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
