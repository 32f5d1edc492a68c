package sampling

import (
	"fmt"
	"math"

	"scrub/internal/stats"
)

// Confidence is the level, 1 − α, of every error bound.
const Confidence = 0.95

// z is the standard normal's 1 − α/2 quantile at Confidence.
const z = 1.959963984540054

// HostTotal is one sampled host's part of a two-stage estimate: the
// Horvitz–Thompson total of its readings, tᵢ = Σⱼ xⱼ/πⱼ, and the unbiased
// estimate of that total's variance under independent (Bernoulli) event
// sampling, vᵢ = Σⱼ (1 − πⱼ)/πⱼ² · xⱼ². A sampled host without a reading
// is the zero HostTotal.
type HostTotal struct {
	T, V float64
}

// EstimateSum returns the two-stage estimate τ̂ of a SUM (a COUNT's
// readings are 1) and its error bound ε at Confidence. totalHosts is N,
// the eligible hosts the sample was drawn from; hosts holds the n sampled
// hosts' totals:
//
//	τ̂ = N/n · Σᵢ tᵢ
//	V̂ar(τ̂) = N(N−n)/n · s²ₜ + N/n · Σᵢ vᵢ
//	ε = t_{n−1,1−α/2} · √V̂ar(τ̂)   when n < N
//	ε = z_{1−α/2} · √V̂ar(τ̂)       when n = N
//
// s²ₜ is the sample variance of the tᵢ. With every host sampled there is
// no first stage, so no between-host term and no t with n − 1 degrees of
// freedom; one host of several has none to give, and its ε is +Inf.
func EstimateSum(totalHosts int, hosts []HostTotal) (tau, eps float64, err error) {
	n := len(hosts)
	if n == 0 {
		return 0, 0, fmt.Errorf("sampling: no host samples")
	}
	if totalHosts < n {
		return 0, 0, fmt.Errorf("sampling: total hosts %d < sampled %d", totalHosts, n)
	}
	N, fn := float64(totalHosts), float64(n)
	var sum, within float64
	for _, h := range hosts {
		sum += h.T
		within += h.V
	}
	tau = N / fn * sum
	switch n {
	case totalHosts:
		return tau, z * math.Sqrt(within), nil
	case 1:
		return tau, math.Inf(1), nil
	}
	var ss float64 // (n − 1)·s²ₜ
	for _, h := range hosts {
		d := h.T - sum/fn
		ss += d * d
	}
	tq, err := stats.TQuantile(1-(1-Confidence)/2, fn-1)
	if err != nil {
		return 0, 0, err
	}
	return tau, tq * math.Sqrt(N*(N-fn)/fn*ss/(fn-1)+N/fn*within), nil
}
