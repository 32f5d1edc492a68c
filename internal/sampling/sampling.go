// Package sampling implements Scrub's two sampling levels and the
// accompanying error bounds.
//
// The query language supports sampling the set of hosts and sampling the
// events on each chosen host (paper §3.2); both trade accuracy for load in
// a tunable fashion. Like ApproxHadoop, error bounds for scaled SUM/COUNT
// results come from two-stage (cluster) sampling theory:
//
//	τ̂ = N/n · Σᵢ (Mᵢ/mᵢ · Σⱼ vᵢⱼ)  ± ε                    (Eq. 1)
//	ε  = t_{n−1,1−α/2} · sqrt(V̂ar(τ̂))                      (Eq. 2)
//	V̂ar(τ̂) = N(N−n)·s²ᵤ/n + N/n · Σᵢ Mᵢ(Mᵢ−mᵢ)·s²ᵢ/mᵢ      (Eq. 3)
//
// where N is the number of eligible hosts, n the number sampled, Mᵢ the
// number of matching events at host i, mᵢ the number sampled there, s²ᵢ the
// per-host reading variance, and s²ᵤ the variance of the estimated host
// totals.
package sampling

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// Rate is a sampling fraction in [0, 1]; 1 means keep everything.
type Rate float64

// Valid reports whether the rate is a usable fraction.
func (r Rate) Valid() bool { return r > 0 && r <= 1 }

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// GeometricSampler amortizes Bernoulli(rate) sampling into skip counts:
// instead of drawing per event, it draws the gap until the next kept event
// from the geometric distribution with success probability rate. A stream
// consumer decrements a counter per event (one cheap operation) and only
// re-draws when the counter hits zero, so unsampled events — the vast
// majority at troubleshooting rates — cost O(1) with no RNG work at all.
// The sequence of gaps is deterministic for a seed, so two runs over the
// same stream sample identically. Not safe for concurrent use; callers
// serialize draws (the host agent re-draws under the lock it already
// holds for the sampled event's enqueue).
type GeometricSampler struct {
	rate float64
	lnq  float64 // ln(1 − rate), < 0
	seed uint64
	seq  uint64
}

// NewGeometricSampler creates a sampler keeping approximately rate of
// events. rate is clamped to (0, 1]: rate >= 1 keeps everything (every
// gap is 1); rate <= 0 keeps nothing (NextSkip returns MaxInt64).
func NewGeometricSampler(rate float64, seed uint64) *GeometricSampler {
	s := &GeometricSampler{rate: rate, seed: seed}
	if rate > 0 && rate < 1 {
		s.lnq = math.Log1p(-rate)
	}
	return s
}

// Rate returns the clamped keep probability.
func (s *GeometricSampler) Rate() float64 {
	switch {
	case s.rate >= 1:
		return 1
	case s.rate <= 0:
		return 0
	}
	return s.rate
}

// NextSkip returns k >= 1 meaning "the k-th event offered from now is the
// next kept one" — i.e. skip k−1 events, keep the k-th. Gaps have mean
// 1/rate, so over N events approximately N·rate are kept.
//
//scrub:hotpath
func (s *GeometricSampler) NextSkip() int64 {
	switch {
	case s.rate >= 1:
		return 1
	case s.rate <= 0:
		return math.MaxInt64
	}
	s.seq++
	// u uniform in (0, 1]: the +1 keeps it off zero so Log is finite.
	u := (float64(mix64(s.seed^s.seq)>>11) + 1) / (1 << 53)
	k := int64(math.Log(u)/s.lnq) + 1
	if k < 1 {
		k = 1
	}
	return k
}

// SelectHosts deterministically samples ceil(rate·len(hosts)) hosts using
// the query id as seed, so the query server, hosts, and ScrubCentral all
// agree on the chosen set without coordination. The input order does not
// matter; the result is sorted. rate >= 1 returns all hosts.
func SelectHosts(hosts []string, rate float64, queryID uint64) []string {
	if len(hosts) == 0 {
		return nil
	}
	if rate >= 1 {
		out := make([]string, len(hosts))
		copy(out, hosts)
		sort.Strings(out)
		return out
	}
	if rate <= 0 {
		return nil
	}
	sorted := make([]string, len(hosts))
	copy(sorted, hosts)
	sort.Strings(sorted)
	h := fnv.New64a()
	fmt.Fprintf(h, "scrub-host-sample-%d", queryID)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	rng.Shuffle(len(sorted), func(i, j int) { sorted[i], sorted[j] = sorted[j], sorted[i] })
	n := int(math.Ceil(rate * float64(len(sorted))))
	if n < 1 {
		n = 1
	}
	out := sorted[:n]
	sort.Strings(out)
	return out
}

// HostSample carries one sampled host's contribution to a multistage
// estimate: the total number of matching events at the host (Mᵢ) and the
// sampled readings (vᵢⱼ, so mᵢ = len(Values)). For COUNT estimates each
// reading is 1.
type HostSample struct {
	HostID string
	M      uint64
	Values []float64
}

// Estimate is a scaled aggregate with its confidence interval.
type Estimate struct {
	Value      float64 // τ̂
	Err        float64 // ε: half-width of the confidence interval
	Confidence float64 // 1 − α
	NumHosts   int     // N
	Sampled    int     // n
}

// String renders "τ̂ ± ε".
func (e Estimate) String() string {
	return fmt.Sprintf("%.6g ± %.6g (%.0f%% conf, %d/%d hosts)", e.Value, e.Err, e.Confidence*100, e.Sampled, e.NumHosts)
}

// EstimateSum computes the paper's Eq. 1–3 estimator for a SUM over a
// two-stage sample. totalHosts is N (the eligible population the sample was
// drawn from); samples holds one entry per sampled host. confidence is
// 1−α, e.g. 0.95.
//
// Degenerate cases: n == 1 yields an infinite error bound (t with 0 df);
// a host with M > 0 but no sampled values is an error — the estimator
// cannot scale from zero readings.
func EstimateSum(totalHosts int, samples []HostSample, confidence float64) (Estimate, error) {
	hosts := make([]HostMoments, len(samples))
	for i, s := range samples {
		hosts[i] = MomentsOf(s)
	}
	return EstimateSumMoments(totalHosts, hosts, confidence)
}
