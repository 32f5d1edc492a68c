package sampling

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"scrub/internal/stats"
)

// sample is one sampled host's moments over its readings vals, of m
// matching events there.
func sample(id string, m uint64, vals ...float64) HostMoments {
	var r stats.Running
	for _, v := range vals {
		r.Add(v)
	}
	return HostMoments{HostID: id, M: m, N: r.N(), Sum: r.Sum(), Var: r.Var()}
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

// TestSelectHostsCount sweeps SAMPLE HOSTS p % over 1–1000 hosts: the
// selection is ⌈p·n/100⌉ hosts, never one more because p/100·n came out
// a hair above an integer in floating point (7 % of 100 is 7, not 8).
func TestSelectHostsCount(t *testing.T) {
	hosts := hostNames(200)
	for _, c := range []struct{ p, n, want int }{{7, 100, 7}, {7, 200, 14}, {29, 100, 29}, {1, 100, 1}, {99, 200, 198}} {
		if got := len(SelectHosts(hosts[:c.n], float64(c.p)/100, 1)); got != c.want {
			t.Errorf("%d%% of %d hosts selected %d, want %d", c.p, c.n, got, c.want)
		}
	}
	for p := 1; p <= 100; p++ {
		for n := 1; n <= 1000; n++ {
			if got, want := hostCount(float64(p)/100, n), (p*n+99)/100; got != want {
				t.Fatalf("%d%% of %d hosts counts %d, want %d", p, n, got, want)
			}
		}
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
	samples := []HostMoments{sample("a", 3, 1, 2, 3), sample("b", 2, 10, 20)}
	est, err := EstimateSumMoments(2, samples, 0.95)
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
	samples := []HostMoments{sample("a", 4, 5, 5), sample("b", 4, 5, 5)}
	est, err := EstimateSumMoments(4, samples, 0.95)
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
}

func TestEstimateSumErrors(t *testing.T) {
	good := []HostMoments{sample("a", 1, 1), sample("b", 1, 1)}
	if _, err := EstimateSumMoments(2, nil, 0.95); err == nil {
		t.Error("no samples should fail")
	}
	if _, err := EstimateSumMoments(1, good, 0.95); err == nil {
		t.Error("N < n should fail")
	}
	if _, err := EstimateSumMoments(2, good, 0); err == nil {
		t.Error("confidence 0 should fail")
	}
	if _, err := EstimateSumMoments(2, good, 1); err == nil {
		t.Error("confidence 1 should fail")
	}
	bad := []HostMoments{sample("a", 5), sample("b", 1, 1)}
	if _, err := EstimateSumMoments(2, bad, 0.95); err == nil {
		t.Error("M>0 with no values should fail")
	}
	// Host with M=0 and no values is fine — it contributes zero.
	zero := []HostMoments{sample("a", 0), sample("b", 2, 3, 4)}
	est, err := EstimateSumMoments(2, zero, 0.95)
	if err != nil || est.Value != 7 {
		t.Errorf("zero-host estimate = %v, %v", est, err)
	}
}

func TestEstimateSumSingleHostInfiniteBound(t *testing.T) {
	est, err := EstimateSumMoments(10, []HostMoments{sample("a", 10, 1, 2)}, 0.95)
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
// gross formula errors produce far lower coverage). It sweeps seven
// (host, event) rate pairs, from every host at half the events down to
// the paper's 10%/10% use case (§8.2) and below, and the error must grow
// as the sampling thins.
func TestEstimateCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const (
		N          = 40  // hosts
		perHost    = 200 // events per host
		trials     = 300
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
	var relErrs []float64
	for _, rates := range [][2]float64{
		{1.0, 0.5}, {1.0, 0.1}, {0.5, 0.5}, {0.5, 0.1},
		{0.2, 0.2}, {0.1, 0.1}, {0.1, 0.05},
	} {
		hostRate, eventRate := rates[0], rates[1]
		n := int(hostRate * N)
		covered, relErr := 0, 0.0
		for trial := 0; trial < trials; trial++ {
			hostIdx := rng.Perm(N)[:n]
			samples := make([]HostMoments, 0, n)
			for _, hi := range hostIdx {
				events := pop[hi]
				mi := int(eventRate * float64(len(events)))
				idx := rng.Perm(len(events))[:mi]
				vals := make([]float64, mi)
				for k, ei := range idx {
					vals[k] = events[ei]
				}
				samples = append(samples, sample("h", uint64(len(events)), vals...))
			}
			est, err := EstimateSumMoments(N, samples, confidence)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est.Value-truth) <= est.Err {
				covered++
			}
			relErr += math.Abs(est.Value-truth) / truth / trials
		}
		coverage := float64(covered) / trials
		if coverage < 0.85 {
			t.Errorf("rates %g/%g: 95%% interval empirical coverage = %.3f, want >= 0.85", hostRate, eventRate, coverage)
		}
		if relErr > 0.5 {
			t.Errorf("rates %g/%g: mean relative error %.3f, want <= 0.5", hostRate, eventRate, relErr)
		}
		relErrs = append(relErrs, relErr)
	}
	if first, last := relErrs[0], relErrs[len(relErrs)-1]; first >= last {
		t.Errorf("error did not grow with sparser sampling: %.4f at 100%%/50%% vs %.4f at 10%%/5%%", first, last)
	}
}

func BenchmarkEstimateSumMoments(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]HostMoments, 50)
	for i := range samples {
		vals := make([]float64, 100)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		samples[i] = sample("h", 1000, vals...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateSumMoments(100, samples, 0.95); err != nil {
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
	for i := 0; i < 10; i++ {
		if k := all.NextSkip(); k != 1 {
			t.Fatalf("rate>=1 gap = %d, want 1", k)
		}
	}
	none := NewGeometricSampler(-0.1, 1)
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
