package oracle

import (
	"fmt"
	"math"

	"scrub/internal/agg"
	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/sketch"
	"scrub/internal/transport"
)

// Compare holds the windows an executor emitted for plan p to the
// oracle's windows over the same matched events (contract A, DESIGN.md
// §13): the same windows, each with the oracle's rows in the oracle's
// order. COUNT_DISTINCT columns are held to the sketch guarantee instead
// of exact equality; every other column — TOP_K included, so a caller
// keeps its universes below SpaceSaving capacity — must match, floats to
// FloatsClose.
func Compare(p *central.Plan, got []transport.ResultWindow, want []Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("window count: engine %d, oracle %d", len(got), len(want))
	}
	byStart := make(map[int64]*Result, len(want))
	for i := range want {
		byStart[want[i].Start] = &want[i]
	}
	for i := range got {
		o := byStart[got[i].WindowStart]
		if o == nil || got[i].WindowEnd != o.End {
			return fmt.Errorf("window %d span [%d,%d) has no oracle counterpart", i, got[i].WindowStart, got[i].WindowEnd)
		}
		if err := compareWindow(p, got[i], o); err != nil {
			return fmt.Errorf("window [%d,%d): %v", o.Start, o.End, err)
		}
	}
	return nil
}

func compareWindow(p *central.Plan, ew transport.ResultWindow, o *Result) error {
	if len(ew.Rows) != len(o.Rows) {
		return fmt.Errorf("row count: engine %d, oracle %d\n  engine: %v\n  oracle: %v",
			len(ew.Rows), len(o.Rows), ew.Rows, o.Rows)
	}
	for r := range ew.Rows {
		if len(ew.Rows[r]) != len(o.Rows[r]) {
			return fmt.Errorf("row %d width: engine %d, oracle %d", r, len(ew.Rows[r]), len(o.Rows[r]))
		}
		for c := range ew.Rows[r] {
			if ar, ok := p.Select[c].Expr.(expr.AggRef); ok && ar.Spec.Kind == agg.KindCountDistinct {
				est, eok := ew.Rows[r][c].AsFloat()
				truth, tok := o.Rows[r][c].AsFloat()
				if !eok || !tok {
					return fmt.Errorf("row %d col %d: non-numeric COUNT_DISTINCT (engine %v, oracle %v)",
						r, c, ew.Rows[r][c], o.Rows[r][c])
				}
				if math.Abs(est-truth) > distinctTolerance(truth) {
					return fmt.Errorf("row %d col %d: COUNT_DISTINCT %v vs exact %v exceeds sketch bound %.2f",
						r, c, est, truth, distinctTolerance(truth))
				}
				continue
			}
			if !ValuesClose(ew.Rows[r][c], o.Rows[r][c]) {
				return fmt.Errorf("row %d col %d: engine %v, oracle %v\n  engine row: %v\n  oracle row: %v",
					r, c, ew.Rows[r][c], o.Rows[r][c], ew.Rows[r], o.Rows[r])
			}
		}
	}
	return nil
}

// hllStdError is the relative standard error of the default-precision
// HLL the engine's COUNT_DISTINCT uses.
var hllStdError = 1.04 / math.Sqrt(float64(int(1)<<sketch.DefaultHLLPrecision))

// distinctTolerance is the sketch-guarantee bound for COUNT_DISTINCT:
// 5 standard errors (the bound the sketch's own tests enforce), floored
// for tiny cardinalities where rounding dominates.
func distinctTolerance(truth float64) float64 {
	return max(5*hllStdError*truth, 3)
}

// ValuesClose is exact for everything except floats, which it compares
// with FloatsClose: shard merges and join order re-associate float sums.
func ValuesClose(a, b event.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if la, ok := a.AsList(); ok {
		lb, ok := b.AsList()
		if !ok || len(la) != len(lb) {
			return false
		}
		for i := range la {
			if !ValuesClose(la[i], lb[i]) {
				return false
			}
		}
		return true
	}
	fa, oka := a.AsFloat()
	fb, okb := b.AsFloat()
	if oka && okb {
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return math.IsNaN(fa) && math.IsNaN(fb)
		}
		return FloatsClose(fa, fb)
	}
	return a.Equal(b)
}

// FloatsClose allows 1e-9 relative error (absolute below 1).
func FloatsClose(a, b float64) bool {
	if a == b {
		return true // exact match, including equal infinities (Inf-Inf is NaN)
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}
