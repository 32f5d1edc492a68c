// Package agg implements Scrub's aggregation framework: the standard SQL
// aggregates (COUNT, SUM, AVG, MIN, MAX) plus the probabilistic aggregates
// the paper calls out — TOP_K via the SpaceSaving stream summary and
// COUNT_DISTINCT via HyperLogLog.
//
// All aggregators are mergeable so partial aggregates can be combined
// (across windows, or across a sharded ScrubCentral) without access to the
// raw tuples. Per the paper's execution model, aggregation runs only at
// ScrubCentral, never on the application hosts.
package agg

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"scrub/internal/event"
	"scrub/internal/sketch"
)

// Kind identifies an aggregate function.
type Kind uint8

// Aggregate kinds.
const (
	KindInvalid Kind = iota
	KindCountStar
	KindCount
	KindSum
	KindAvg
	KindMin
	KindMax
	KindTopK
	KindCountDistinct
)

// String returns the query-language spelling.
func (k Kind) String() string {
	switch k {
	case KindCountStar:
		return "COUNT(*)"
	case KindCount:
		return "COUNT"
	case KindSum:
		return "SUM"
	case KindAvg:
		return "AVG"
	case KindMin:
		return "MIN"
	case KindMax:
		return "MAX"
	case KindTopK:
		return "TOP_K"
	case KindCountDistinct:
		return "COUNT_DISTINCT"
	default:
		return "INVALID"
	}
}

// ParseKind resolves a function name from query text. COUNT(*) is handled
// by the parser; this maps bare names.
func ParseKind(name string) (Kind, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return KindCount, true
	case "SUM":
		return KindSum, true
	case "AVG":
		return KindAvg, true
	case "MIN":
		return KindMin, true
	case "MAX":
		return KindMax, true
	case "TOP_K", "TOPK":
		return KindTopK, true
	case "COUNT_DISTINCT", "COUNTDISTINCT":
		return KindCountDistinct, true
	default:
		return KindInvalid, false
	}
}

// Spec declares one aggregate in a query plan.
type Spec struct {
	Kind Kind
	K    int   // TOP_K parameter
	Prec uint8 // HLL precision for COUNT_DISTINCT; 0 means default
}

// Scalable reports whether the aggregate's result scales linearly under
// sampling (so a Horvitz-Thompson factor can be applied). COUNT and SUM
// scale; AVG/MIN/MAX are invariant ratios/extremes; sketches are reported
// unscaled with a caveat.
func (s Spec) Scalable() bool {
	return s.Kind == KindCountStar || s.Kind == KindCount || s.Kind == KindSum
}

// Aggregator accumulates values and produces a result. Implementations are
// not safe for concurrent use; ScrubCentral partitions by group key.
type Aggregator interface {
	// Add folds one input value of weight w in: COUNT, SUM and AVG count
	// it w times, MIN, MAX and the sketches once. CountStar counts every
	// call; the others skip Invalid (missing) inputs, as SQL skips NULL.
	Add(v event.Value, w uint64)
	// Merge combines another partial of the same kind into the receiver.
	Merge(o Aggregator) error
	// Result renders the current aggregate as a result-row value. Empty
	// aggregates yield Invalid (SQL NULL), except COUNT variants which
	// yield 0.
	Result() event.Value
}

// validate rejects a spec no state can be made for: an unknown kind, a
// TOP_K without k > 0, a COUNT_DISTINCT precision outside the sketch's.
func (s Spec) validate() error {
	switch {
	case s.Kind < KindCountStar || s.Kind > KindCountDistinct:
		return fmt.Errorf("agg: unknown aggregate kind %d", s.Kind)
	case s.Kind == KindTopK && s.K <= 0:
		return fmt.Errorf("agg: TOP_K requires k > 0, got %d", s.K)
	case s.Kind == KindCountDistinct:
		if p := hllPrecision(s); p < sketch.MinHLLPrecision || p > sketch.MaxHLLPrecision {
			return fmt.Errorf("agg: COUNT_DISTINCT precision %d outside [%d, %d]",
				p, sketch.MinHLLPrecision, sketch.MaxHLLPrecision)
		}
	}
	return nil
}

// topKCapacity is how many counters TOP_K tracks: a multiple of k, so the
// reported top-k is accurate even under eviction pressure (standard
// SpaceSaving practice).
func topKCapacity(k int) int { return max(8*k, 64) }

// hllPrecision is the spec's HLL precision, the default for 0.
func hllPrecision(s Spec) uint8 {
	if s.Prec == 0 {
		return sketch.DefaultHLLPrecision
	}
	return s.Prec
}

func mergeTypeError(dst, src Aggregator) error {
	return fmt.Errorf("agg: cannot merge %T into %T", src, dst)
}

// --- COUNT / COUNT(*) ---

// countAgg is COUNT(expr); countStarAgg is the same state counting every
// call. Which of the two a count is is the plan's to know, not a field of
// every group's state: a Slab keeps eight bytes a count and views them as
// one or the other.
type (
	countAgg     struct{ n uint64 }
	countStarAgg countAgg
)

func (a *countAgg) Add(v event.Value, w uint64) {
	if v.IsValid() {
		a.n += w
	}
}

func (a *countAgg) Merge(o Aggregator) error {
	oc, ok := o.(*countAgg)
	if !ok {
		return mergeTypeError(a, o)
	}
	a.n += oc.n
	return nil
}

func (a *countAgg) Result() event.Value { return event.Int(int64(a.n)) }

func (a *countStarAgg) Add(_ event.Value, w uint64) { a.n += w }

func (a *countStarAgg) Merge(o Aggregator) error {
	oc, ok := o.(*countStarAgg)
	if !ok {
		return mergeTypeError(a, o)
	}
	a.n += oc.n
	return nil
}

func (a *countStarAgg) Result() event.Value { return event.Int(int64(a.n)) }

// --- SUM ---

type sumAgg struct {
	n       uint64
	intSum  int64
	fltSum  float64
	isFloat bool
}

func (a *sumAgg) Add(v event.Value, w uint64) {
	if i, ok := v.AsInt(); ok {
		a.intSum += i * int64(w)
		a.fltSum += float64(i) * float64(w)
		a.n += w
		return
	}
	if f, ok := v.AsFloat(); ok {
		a.isFloat = true
		a.fltSum += f * float64(w)
		a.n += w
	}
}

func (a *sumAgg) Merge(o Aggregator) error {
	os, ok := o.(*sumAgg)
	if !ok {
		return mergeTypeError(a, o)
	}
	a.n += os.n
	a.intSum += os.intSum
	a.fltSum += os.fltSum
	a.isFloat = a.isFloat || os.isFloat
	return nil
}

func (a *sumAgg) Result() event.Value {
	if a.n == 0 {
		return event.Invalid
	}
	if a.isFloat {
		return event.Float(a.fltSum)
	}
	return event.Int(a.intSum)
}

// --- AVG ---

type avgAgg struct {
	n   uint64
	sum float64
}

func (a *avgAgg) Add(v event.Value, w uint64) {
	if f, ok := v.AsFloat(); ok {
		a.sum += f * float64(w)
		a.n += w
	}
}

func (a *avgAgg) Merge(o Aggregator) error {
	oa, ok := o.(*avgAgg)
	if !ok {
		return mergeTypeError(a, o)
	}
	a.n += oa.n
	a.sum += oa.sum
	return nil
}

func (a *avgAgg) Result() event.Value {
	if a.n == 0 {
		return event.Invalid
	}
	return event.Float(a.sum / float64(a.n))
}

// --- MIN / MAX ---

type extremeAgg struct {
	min bool
	n   uint64
	// best is the one Value ScrubCentral's window state keeps past the
	// apply of the tuple it came from (DESIGN.md §17). It is a copy of the
	// cell, so recycling the tuple's cells cannot reach it; and its string,
	// if it has one, is either an ordinary heap string or aliases a window
	// arena chunk, which is never rewritten and which the reference keeps
	// alive.
	best event.Value
}

func (a *extremeAgg) Add(v event.Value, _ uint64) {
	if !v.IsValid() {
		return
	}
	if a.n == 0 {
		a.best = v
		a.n++
		return
	}
	c, ok := v.Compare(a.best)
	if !ok {
		return // incomparable input (kind mismatch): skip, like NULL
	}
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
	a.n++
}

func (a *extremeAgg) Merge(o Aggregator) error {
	oe, ok := o.(*extremeAgg)
	if !ok || oe.min != a.min {
		return mergeTypeError(a, o)
	}
	if oe.n == 0 {
		return nil
	}
	if a.n == 0 {
		a.best, a.n = oe.best, oe.n
		return nil
	}
	c, ok2 := oe.best.Compare(a.best)
	if ok2 && ((a.min && c < 0) || (!a.min && c > 0)) {
		a.best = oe.best
	}
	a.n += oe.n
	return nil
}

func (a *extremeAgg) Result() event.Value {
	if a.n == 0 {
		return event.Invalid
	}
	return a.best
}

// --- TOP_K ---

type topKAgg struct {
	k   int
	n   uint64
	ss  *sketch.SpaceSaving
	buf []byte // reused item buffer: the value's string form
}

// Add counts the value's string form. The form is built in the reused
// buffer, so a tuple whose item is already tracked allocates nothing.
func (a *topKAgg) Add(v event.Value, _ uint64) {
	if !v.IsValid() {
		return
	}
	a.buf = v.AppendString(a.buf[:0])
	a.ss.AddBytes(a.buf)
	a.n++
}

func (a *topKAgg) Merge(o Aggregator) error {
	ot, ok := o.(*topKAgg)
	if !ok {
		return mergeTypeError(a, o)
	}
	a.ss.Merge(ot.ss)
	a.n += ot.n
	return nil
}

// Result renders the top-k as a list of "item=count" strings, cut from one
// buffer.
func (a *topKAgg) Result() event.Value {
	var buf []byte
	ends := make([]int, 0, min(a.k, a.ss.Len()))
	a.ss.EachTop(a.k, func(item []byte, count, _ uint64) {
		buf = append(append(buf, item...), '=')
		buf = strconv.AppendUint(buf, count, 10)
		ends = append(ends, len(buf))
	})
	all, start := string(buf), 0
	vs := make([]event.Value, len(ends))
	for i, end := range ends {
		vs[i] = event.Str(all[start:end])
		start = end
	}
	return event.List(event.KindString, vs...)
}

// --- COUNT_DISTINCT ---

type distinctAgg struct {
	n   uint64
	hll *sketch.HLL
}

func (a *distinctAgg) Add(v event.Value, _ uint64) {
	if !v.IsValid() {
		return
	}
	a.hll.AddHash(v.Hash())
	a.n++
}

func (a *distinctAgg) Merge(o Aggregator) error {
	od, ok := o.(*distinctAgg)
	if !ok {
		return mergeTypeError(a, o)
	}
	if err := a.hll.Merge(od.hll); err != nil {
		return err
	}
	a.n += od.n
	return nil
}

func (a *distinctAgg) Result() event.Value { return event.Int(int64(a.hll.Estimate())) }

// ScaleResult applies a Horvitz-Thompson scale factor to a scalable
// aggregate's result (COUNT and SUM under sampling). Non-numeric or
// invalid results pass through unchanged.
func ScaleResult(v event.Value, factor float64) event.Value {
	if factor == 1 || !v.IsValid() {
		return v
	}
	if i, ok := v.AsInt(); ok {
		return event.Int(int64(math.Round(float64(i) * factor)))
	}
	if f, ok := v.AsFloat(); ok {
		return event.Float(f * factor)
	}
	return v
}
