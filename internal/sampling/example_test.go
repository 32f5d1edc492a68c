package sampling_test

import (
	"fmt"

	"scrub/internal/sampling"
)

// ExampleEstimateSum demonstrates the paper's Eq. 1–3 multistage
// estimator: 2 of 4 hosts sampled, 2 of the 4 events read at each
// (readings 5, 7 and 6, 6), each host's total Mᵢ/mᵢ·Σv = 24 with variance
// Mᵢ(Mᵢ−mᵢ)·s²ᵢ/mᵢ, the sum scaled up with a 95% confidence bound.
func ExampleEstimateSum() {
	hosts := []sampling.HostTotal{
		{T: 24, V: 8}, // s² = 2
		{T: 24, V: 0}, // s² = 0
	}
	tau, eps, err := sampling.EstimateSum(4, hosts)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("τ̂ = %.0f ± %.1f (N=4, n=%d)\n", tau, eps, len(hosts))
	// Output:
	// τ̂ = 96 ± 50.8 (N=4, n=2)
}

// ExampleSelectHosts shows deterministic host sampling: every component
// derives the same subset from the query id, with no coordination.
func ExampleSelectHosts() {
	hosts := []string{"h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8", "h9", "h10"}
	chosen := sampling.SelectHosts(hosts, 0.3, 12345)
	fmt.Println(chosen)
	again := sampling.SelectHosts(hosts, 0.3, 12345)
	fmt.Println(len(chosen) == len(again))
	// Output:
	// [h10 h2 h5]
	// true
}
