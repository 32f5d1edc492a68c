package sampling_test

import (
	"fmt"

	"scrub/internal/sampling"
)

// ExampleEstimateSumMoments demonstrates the paper's Eq. 1–3 multistage
// estimator: 2 of 4 hosts sampled, half the events read at each (readings
// 5, 7 and 6, 6), the sum scaled up with a 95% confidence bound.
func ExampleEstimateSumMoments() {
	hosts := []sampling.HostMoments{
		{HostID: "bid-01", M: 4, N: 2, Sum: 12, Var: 2},
		{HostID: "bid-02", M: 4, N: 2, Sum: 12, Var: 0},
	}
	est, err := sampling.EstimateSumMoments(4, hosts, 0.95)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("τ̂ = %.0f (N=%d, n=%d)\n", est.Value, est.NumHosts, est.Sampled)
	// Output:
	// τ̂ = 96 (N=4, n=2)
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
