// Package sampling implements Scrub's two sampling levels and the
// accompanying error bounds.
//
// The query language supports sampling the set of hosts and sampling the
// events on each chosen host (paper §3.2); both trade accuracy for load in
// a tunable fashion. Like ApproxHadoop, error bounds for scaled SUM/COUNT
// results come from two-stage (cluster) sampling theory. The paper states
// them for mᵢ of Mᵢ events drawn without replacement at each host:
//
//	τ̂ = N/n · Σᵢ (Mᵢ/mᵢ · Σⱼ vᵢⱼ)  ± ε                    (Eq. 1)
//	ε  = t_{n−1,1−α/2} · sqrt(V̂ar(τ̂))                      (Eq. 2)
//	V̂ar(τ̂) = N(N−n)·s²ᵤ/n + N/n · Σᵢ Mᵢ(Mᵢ−mᵢ)·s²ᵢ/mᵢ      (Eq. 3)
//
// where N is the number of eligible hosts, n the number sampled, s²ᵢ the
// per-host reading variance, and s²ᵤ the variance of the estimated host
// totals. A host here samples each event independently, keeping event j
// with probability πⱼ = q/wⱼ (plan rate q, the tuple's integer governor
// weight wⱼ), and Mᵢ is not known per window. So each host's Mᵢ/mᵢ·Σⱼ vᵢⱼ
// is its Horvitz–Thompson total tᵢ = Σⱼ vᵢⱼ/πⱼ, and its within-host term
// Mᵢ(Mᵢ−mᵢ)·s²ᵢ/mᵢ is that total's unbiased variance
// vᵢ = Σⱼ (1−πⱼ)/πⱼ² · vᵢⱼ²:
//
//	τ̂ = N/n · Σᵢ tᵢ
//	V̂ar(τ̂) = N(N−n)·s²ₜ/n + N/n · Σᵢ vᵢ
//
// Eq. 2's t applies when hosts are sampled (n < N). When every host is
// (n = N) there is no first stage, and ε is the normal quantile times
// sqrt(Σᵢ vᵢ) (EstimateSum).
package sampling

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

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
	out := sorted[:hostCount(rate, len(sorted))]
	sort.Strings(out)
	return out
}

// hostCount is ceil(rate·n), at least 1, where a product within
// floating-point error of an integer counts as that integer: 7 % of 100
// hosts is 7, though 0.07·100 is 7.000000000000001.
func hostCount(rate float64, n int) int {
	x := rate * float64(n)
	k := int(math.Ceil(x))
	if r := math.Round(x); math.Abs(x-r) <= 1e-9*r {
		k = int(r)
	}
	return max(k, 1)
}
