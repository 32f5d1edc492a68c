// Package sampling implements Scrub's two sampling levels and the
// accompanying error bounds: SelectHosts picks a query's hosts, and Keep
// is every host's keep test for a matched event.
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

// Threshold is what Keep compares a key's hash to for a Bernoulli(rate)
// sample: rate·2⁵³, the hash's top 53 bits being a float's precision, so
// that rate 1 keeps every key and a halved rate keeps exactly the half of
// the keys below the half threshold. rate is clamped to [0, 1].
func Threshold(rate float64) uint64 {
	return uint64(math.Ldexp(min(max(rate, 0), 1), 53))
}

// Keep reports whether the sample under seed at threshold thr keeps key.
// It holds no state: whether a key is kept depends on (seed, key, thr)
// alone, so every sampler that shares a seed keeps the same keys, and
// thresholds nest — a key kept at a threshold is kept at every higher one.
//
//scrub:hotpath
func Keep(seed, key, thr uint64) bool { return mix64(seed^key)>>11 < thr }

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
