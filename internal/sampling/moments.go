package sampling

import (
	"fmt"
	"math"

	"scrub/internal/stats"
)

// HostMoments is one sampled host's contribution to a multistage estimate,
// in sufficient-statistics form: ScrubCentral keeps per-host Welford
// accumulators instead of raw readings (vᵢⱼ; each is 1 for COUNT), so
// memory stays O(hosts · aggregates) per window instead of O(sampled
// tuples).
type HostMoments struct {
	HostID string
	M      uint64  // Mᵢ: matching events at the host
	N      int     // mᵢ: sampled readings
	Sum    float64 // Σⱼ vᵢⱼ
	Var    float64 // unbiased sample variance s²ᵢ (0 when N < 2)
	// EstimatedM marks Mᵢ as recovered from a Bernoulli event-sampling
	// rate (Mᵢ ≈ mᵢ/q) rather than reported exactly. Eq. 1's within-host
	// term assumes Mᵢ is known — drawing mᵢ of Mᵢ without replacement —
	// and collapses to zero for constant values (COUNT: every sampled
	// value is 1, s²ᵢ = 0) even though mᵢ/q itself carries full binomial
	// error. When Mᵢ is estimated, the within-host uncertainty must be
	// that of the Horvitz–Thompson estimator Σxⱼ/q, whose variance keeps
	// the mean term: (1−q)/q² · Σxⱼ².
	EstimatedM bool
}

// EstimateSumMoments computes the paper's Eq. 1–3 estimator for a SUM
// over a two-stage sample. totalHosts is N (the eligible population the
// sample was drawn from); hosts holds one entry per sampled host.
// confidence is 1−α, e.g. 0.95.
//
// Degenerate cases: n == 1 yields an infinite error bound (t with 0 df);
// a host with M > 0 but no sampled values is an error — the estimator
// cannot scale from zero readings.
func EstimateSumMoments(totalHosts int, hosts []HostMoments, confidence float64) (Estimate, error) {
	n := len(hosts)
	N := float64(totalHosts)
	if n == 0 {
		return Estimate{}, fmt.Errorf("sampling: no host samples")
	}
	if totalHosts < n {
		return Estimate{}, fmt.Errorf("sampling: total hosts %d < sampled %d", totalHosts, n)
	}
	if confidence <= 0 || confidence >= 1 {
		return Estimate{}, fmt.Errorf("sampling: confidence must be in (0,1), got %g", confidence)
	}

	var hostTotals stats.Running
	var within float64
	for _, h := range hosts {
		if h.N == 0 {
			if h.M == 0 {
				hostTotals.Add(0)
				continue
			}
			return Estimate{}, fmt.Errorf("sampling: host %s has M=%d matching events but zero sampled values", h.HostID, h.M)
		}
		Mi := float64(h.M)
		mi := float64(h.N)
		ui := Mi / mi * h.Sum
		hostTotals.Add(ui)
		if h.EstimatedM && Mi > mi {
			// Horvitz–Thompson variance under Bernoulli sampling at rate
			// q = mᵢ/Mᵢ, with Σxⱼ² recovered from the sample moments.
			q := mi / Mi
			sumSq := (mi-1)*h.Var + h.Sum*h.Sum/mi
			within += (1 - q) / (q * q) * sumSq
		} else {
			within += Mi * (Mi - mi) * h.Var / mi
		}
	}

	tau := N / float64(n) * hostTotals.Sum()
	est := Estimate{Value: tau, Confidence: confidence, NumHosts: totalHosts, Sampled: n}
	if n == 1 {
		est.Err = math.Inf(1)
		return est, nil
	}
	variance := N*(N-float64(n))*hostTotals.Var()/float64(n) + N/float64(n)*within
	if variance < 0 {
		variance = 0
	}
	tq, err := stats.TQuantile(1-(1-confidence)/2, float64(n-1))
	if err != nil {
		return Estimate{}, err
	}
	est.Err = tq * math.Sqrt(variance)
	return est, nil
}
