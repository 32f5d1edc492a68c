package stats

import (
	"math"
	"sort"

	"scrub/internal/wire"
)

// Running accumulates streaming mean and variance via Welford's algorithm.
// The zero value is an empty accumulator ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation in.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Var returns the unbiased sample variance s² (0 when n < 2).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Sum returns n * mean.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }

// Merge folds another accumulator in (Chan et al. parallel variant).
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n1, n2 := float64(r.n), float64(o.n)
	delta := o.mean - r.mean
	tot := n1 + n2
	r.m2 += o.m2 + delta*delta*n1*n2/tot
	r.mean += delta * n2 / tot
	r.n += o.n
}

// Code codes the accumulator exactly in c's mode: the observation count
// plus the raw IEEE-754 bits of mean and m2, so a decoded copy merges and
// reports bit-identically to the original.
func (r *Running) Code(c *wire.Coder) {
	c.Int(&r.n)
	c.F64(&r.mean)
	c.F64(&r.m2)
}

// Percentile returns the p'th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs is not modified. Returns 0 for an
// empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
