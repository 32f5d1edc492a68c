package sampling

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestRateValid(t *testing.T) {
	if !Rate(0.5).Valid() || !Rate(1).Valid() {
		t.Error("valid rates misclassified")
	}
	if Rate(0).Valid() || Rate(-0.1).Valid() || Rate(1.1).Valid() {
		t.Error("invalid rates misclassified")
	}
}

func hostNames(n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = "host-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26))
	}
	return hosts
}

func TestSelectHostsBasics(t *testing.T) {
	hosts := hostNames(20)
	if SelectHosts(nil, 0.5, 1) != nil {
		t.Error("empty input should return nil")
	}
	if SelectHosts(hosts, 0, 1) != nil {
		t.Error("rate 0 should select none")
	}
	all := SelectHosts(hosts, 1, 1)
	if len(all) != 20 || !sort.StringsAreSorted(all) {
		t.Errorf("rate 1 should return all sorted, got %d", len(all))
	}
	half := SelectHosts(hosts, 0.5, 1)
	if len(half) != 10 {
		t.Errorf("rate 0.5 selected %d of 20", len(half))
	}
	if !sort.StringsAreSorted(half) {
		t.Error("selection should be sorted")
	}
	tiny := SelectHosts(hosts, 0.001, 1)
	if len(tiny) != 1 {
		t.Errorf("tiny rate should still select 1, got %d", len(tiny))
	}
}

func TestSelectHostsDeterministicAndSeedSensitive(t *testing.T) {
	hosts := hostNames(30)
	a := SelectHosts(hosts, 0.3, 99)
	b := SelectHosts(hosts, 0.3, 99)
	if !reflect.DeepEqual(a, b) {
		t.Error("same query id must select the same hosts")
	}
	// Input order must not matter.
	shuffled := make([]string, len(hosts))
	copy(shuffled, hosts)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	c := SelectHosts(shuffled, 0.3, 99)
	if !reflect.DeepEqual(a, c) {
		t.Error("input order changed the selection")
	}
	// Different query ids should (almost surely) differ.
	d := SelectHosts(hosts, 0.3, 100)
	if reflect.DeepEqual(a, d) {
		t.Error("different query ids selected identically")
	}
	// Selection must be a subset of the input.
	set := make(map[string]bool)
	for _, h := range hosts {
		set[h] = true
	}
	for _, h := range a {
		if !set[h] {
			t.Errorf("selected unknown host %s", h)
		}
	}
}

func TestEstimateSumExactWhenFull(t *testing.T) {
	// Sampling every host and every event reproduces the exact sum with
	// zero variance.
	samples := []HostSample{
		{HostID: "a", M: 3, Values: []float64{1, 2, 3}},
		{HostID: "b", M: 2, Values: []float64{10, 20}},
	}
	est, err := EstimateSum(2, samples, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 36 {
		t.Errorf("full-sample estimate = %g, want 36", est.Value)
	}
	if est.Err != 0 {
		t.Errorf("full-sample error = %g, want 0", est.Err)
	}
}

func TestEstimateSumScaling(t *testing.T) {
	// 2 of 4 hosts sampled, half the events at each: estimate scales by 4.
	samples := []HostSample{
		{HostID: "a", M: 4, Values: []float64{5, 5}},
		{HostID: "b", M: 4, Values: []float64{5, 5}},
	}
	est, err := EstimateSum(4, samples, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// u_i = 4/2*10 = 20 each; τ̂ = 4/2*(20+20) = 80.
	if est.Value != 80 {
		t.Errorf("estimate = %g, want 80", est.Value)
	}
	if est.NumHosts != 4 || est.Sampled != 2 {
		t.Errorf("N/n = %d/%d", est.NumHosts, est.Sampled)
	}
	if !strings.Contains(est.String(), "±") {
		t.Errorf("String() = %q", est.String())
	}
}

func TestEstimateSumErrors(t *testing.T) {
	good := []HostSample{{HostID: "a", M: 1, Values: []float64{1}}, {HostID: "b", M: 1, Values: []float64{1}}}
	if _, err := EstimateSum(2, nil, 0.95); err == nil {
		t.Error("no samples should fail")
	}
	if _, err := EstimateSum(1, good, 0.95); err == nil {
		t.Error("N < n should fail")
	}
	if _, err := EstimateSum(2, good, 0); err == nil {
		t.Error("confidence 0 should fail")
	}
	if _, err := EstimateSum(2, good, 1); err == nil {
		t.Error("confidence 1 should fail")
	}
	bad := []HostSample{{HostID: "a", M: 5, Values: nil}, {HostID: "b", M: 1, Values: []float64{1}}}
	if _, err := EstimateSum(2, bad, 0.95); err == nil {
		t.Error("M>0 with no values should fail")
	}
	// Host with M=0 and no values is fine — it contributes zero.
	zero := []HostSample{{HostID: "a", M: 0}, {HostID: "b", M: 2, Values: []float64{3, 4}}}
	est, err := EstimateSum(2, zero, 0.95)
	if err != nil || est.Value != 7 {
		t.Errorf("zero-host estimate = %v, %v", est, err)
	}
}

func TestEstimateSumSingleHostInfiniteBound(t *testing.T) {
	est, err := EstimateSum(10, []HostSample{{HostID: "a", M: 10, Values: []float64{1, 2}}}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(est.Err, 1) {
		t.Errorf("n=1 error bound = %g, want +Inf", est.Err)
	}
}

// TestEstimateCoverage is the empirical check of Eqs. 1–3: across many
// independent sampling draws, the 95% interval should contain the true
// total roughly 95% of the time (we assert ≥ 85% to avoid flakiness;
// gross formula errors produce far lower coverage).
func TestEstimateCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const (
		N          = 40  // hosts
		perHost    = 200 // events per host
		trials     = 300
		hostRate   = 0.5
		eventRate  = 0.25
		confidence = 0.95
	)
	// Fixed population: per-host event values with cross-host variation.
	pop := make([][]float64, N)
	var truth float64
	for i := range pop {
		base := rng.Float64() * 10
		pop[i] = make([]float64, perHost)
		for j := range pop[i] {
			v := base + rng.NormFloat64()*2
			pop[i][j] = v
			truth += v
		}
	}
	n := int(hostRate * N)
	covered := 0
	for trial := 0; trial < trials; trial++ {
		hostIdx := rng.Perm(N)[:n]
		samples := make([]HostSample, 0, n)
		for _, hi := range hostIdx {
			events := pop[hi]
			mi := int(eventRate * float64(len(events)))
			idx := rng.Perm(len(events))[:mi]
			vals := make([]float64, mi)
			for k, ei := range idx {
				vals[k] = events[ei]
			}
			samples = append(samples, HostSample{HostID: "h", M: uint64(len(events)), Values: vals})
		}
		est, err := EstimateSum(N, samples, confidence)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Value-truth) <= est.Err {
			covered++
		}
	}
	coverage := float64(covered) / trials
	if coverage < 0.85 {
		t.Errorf("95%% interval empirical coverage = %.3f, want >= 0.85", coverage)
	}
	if coverage == 1 {
		t.Log("note: coverage 1.0 suggests overly wide bounds (not failing)")
	}
}

func TestEstimateCount(t *testing.T) {
	// 2 of 4 hosts, 10 of 100 events sampled per host → count estimate 400.
	mk := func() []HostSample {
		return []HostSample{
			{HostID: "a", M: 100, Values: make([]float64, 10)},
			{HostID: "b", M: 100, Values: make([]float64, 10)},
		}
	}
	est, err := EstimateCount(4, mk(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 400 {
		t.Errorf("count estimate = %g, want 400", est.Value)
	}
	// Identical host totals → zero between-host variance; all-ones → zero
	// within-host variance.
	if est.Err != 0 {
		t.Errorf("count error = %g, want 0", est.Err)
	}
}

func BenchmarkEstimateSum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]HostSample, 50)
	for i := range samples {
		vals := make([]float64, 100)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		samples[i] = HostSample{HostID: "h", M: 1000, Values: vals}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateSum(100, samples, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGeometricSamplerMeanGap(t *testing.T) {
	for _, rate := range []float64{0.5, 0.1, 0.01} {
		s := NewGeometricSampler(rate, 42)
		const draws = 20000
		var total int64
		for i := 0; i < draws; i++ {
			total += s.NextSkip()
		}
		// Keep fraction over the simulated stream = draws / Σ gaps.
		got := float64(draws) / float64(total)
		if got < rate*0.9 || got > rate*1.1 {
			t.Errorf("rate %g: effective keep fraction %g, want within ±10%%", rate, got)
		}
	}
}

func TestGeometricSamplerDeterministic(t *testing.T) {
	a := NewGeometricSampler(0.05, 7)
	b := NewGeometricSampler(0.05, 7)
	c := NewGeometricSampler(0.05, 8)
	same, diff := true, true
	for i := 0; i < 1000; i++ {
		ka := a.NextSkip()
		if ka != b.NextSkip() {
			same = false
		}
		if ka != c.NextSkip() {
			diff = false
		}
	}
	if !same {
		t.Error("same seed must reproduce the same gap sequence")
	}
	if diff {
		t.Error("different seeds should diverge")
	}
}

func TestGeometricSamplerClamps(t *testing.T) {
	all := NewGeometricSampler(1.5, 1)
	if all.Rate() != 1 {
		t.Errorf("rate = %g, want clamp to 1", all.Rate())
	}
	for i := 0; i < 10; i++ {
		if k := all.NextSkip(); k != 1 {
			t.Fatalf("rate>=1 gap = %d, want 1", k)
		}
	}
	none := NewGeometricSampler(-0.1, 1)
	if none.Rate() != 0 {
		t.Errorf("rate = %g, want clamp to 0", none.Rate())
	}
	if k := none.NextSkip(); k != math.MaxInt64 {
		t.Errorf("rate<=0 gap = %d, want MaxInt64", k)
	}
}

func BenchmarkGeometricSamplerNextSkip(b *testing.B) {
	s := NewGeometricSampler(0.1, 1)
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += s.NextSkip()
	}
	_ = sink
}
