package agg

import (
	"fmt"

	"scrub/internal/slab"
)

// Slab carves the states of the scalar aggregates (COUNT, SUM, AVG, MIN,
// MAX) out of chunked arrays: a window holding thousands of groups then
// pays one allocation per chunk instead of one per aggregator, and the
// whole set is freed together with the window that owns the Slab. States
// are handed out as pointers into chunks that are never reallocated
// (internal/slab). The sketch-backed aggregates (TOP_K, COUNT_DISTINCT)
// own variable-size state and are allocated individually, exactly as New
// does. The zero Slab is ready to use; it is not safe for concurrent use.
type Slab struct {
	counts   slab.Slab[countAgg]
	sums     slab.Slab[sumAgg]
	avgs     slab.Slab[avgAgg]
	extremes slab.Slab[extremeAgg]
}

// carve returns the next free state of s, nil when s has run out of
// index space (2^32 states).
func carve[T any](s *slab.Slab[T]) *T {
	_, run, ok := s.Alloc(1)
	if !ok {
		return nil
	}
	return &run[0]
}

// New is New with scalar states carved from the slab.
func (sl *Slab) New(s Spec) (Aggregator, error) {
	switch s.Kind {
	case KindCountStar, KindCount:
		if a := carve(&sl.counts); a != nil {
			a.star = s.Kind == KindCountStar
			return a, nil
		}
	case KindSum:
		if a := carve(&sl.sums); a != nil {
			return a, nil
		}
	case KindAvg:
		if a := carve(&sl.avgs); a != nil {
			return a, nil
		}
	case KindMin, KindMax:
		if a := carve(&sl.extremes); a != nil {
			a.min = s.Kind == KindMin
			return a, nil
		}
	default:
		return New(s)
	}
	return nil, fmt.Errorf("agg: slab of %v states is full", s.Kind)
}

// Bytes returns the total size of the chunks allocated so far.
func (sl *Slab) Bytes() int64 {
	return sl.counts.Bytes() + sl.sums.Bytes() + sl.avgs.Bytes() + sl.extremes.Bytes()
}
