package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// srswor is a host's total and variance in the paper's Eq. 1 and 3 form:
// the readings vals are m of the host's M events, drawn without
// replacement, so tᵢ = M/m·Σv and vᵢ = M(M−m)·s²/m.
func srswor(M int, vals ...float64) HostTotal {
	m := float64(len(vals))
	var sum, ss float64
	for _, v := range vals {
		sum += v
	}
	for _, v := range vals {
		ss += (v - sum/m) * (v - sum/m)
	}
	h := HostTotal{T: float64(M) / m * sum}
	if m > 1 {
		h.V = float64(M) * (float64(M) - m) * ss / (m - 1) / m
	}
	return h
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
	tau, eps, err := EstimateSum(2, []HostTotal{srswor(3, 1, 2, 3), srswor(2, 10, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if tau != 36 {
		t.Errorf("full-sample estimate = %g, want 36", tau)
	}
	if eps != 0 {
		t.Errorf("full-sample error = %g, want 0", eps)
	}
}

func TestEstimateSumScaling(t *testing.T) {
	// 2 of 4 hosts sampled, half the events at each: estimate scales by 4.
	tau, _, err := EstimateSum(4, []HostTotal{srswor(4, 5, 5), srswor(4, 5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	// t_i = 4/2*10 = 20 each; τ̂ = 4/2*(20+20) = 80.
	if tau != 80 {
		t.Errorf("estimate = %g, want 80", tau)
	}
}

func TestEstimateSumErrors(t *testing.T) {
	if _, _, err := EstimateSum(2, nil); err == nil {
		t.Error("no samples should fail")
	}
	if _, _, err := EstimateSum(1, []HostTotal{srswor(1, 1), srswor(1, 1)}); err == nil {
		t.Error("N < n should fail")
	}
	// A host without a reading is fine — it contributes zero.
	if tau, _, err := EstimateSum(2, []HostTotal{{}, srswor(2, 3, 4)}); err != nil || tau != 7 {
		t.Errorf("zero-host estimate = %g, %v", tau, err)
	}
}

func TestEstimateSumSingleHostInfiniteBound(t *testing.T) {
	h := srswor(10, 1, 2)
	if _, eps, err := EstimateSum(10, []HostTotal{h}); err != nil || !math.IsInf(eps, 1) {
		t.Errorf("n=1 of N=10 error bound = %g, %v; want +Inf", eps, err)
	}
	// The one host of one is every host: there is no first stage, and
	// the bound is the within-host term's alone.
	if _, eps, err := EstimateSum(1, []HostTotal{h}); err != nil || eps != z*math.Sqrt(h.V) {
		t.Errorf("n=N=1 error bound = %g, %v; want %g", eps, err, z*math.Sqrt(h.V))
	}
}

// TestEstimateCoverage is the empirical check of Eqs. 1–3: across many
// independent sampling draws, the 95% interval should contain the true
// total roughly 95% of the time (we assert ≥ 85% to avoid flakiness;
// gross formula errors produce far lower coverage). Its first rows draw
// as the paper does, mᵢ of Mᵢ events without replacement on n of N hosts,
// from every host at half the events down to the paper's 10%/10% use case
// (§8.2) and below, and the error must grow as the sampling thins. The
// others draw as a host and central do: each event kept independently
// with probability q/w, where half of a host's events carry the governor
// weight 2, and each host's total and variance summed as central sums
// them — including one host of one and four of four, where there is no
// host stage.
func TestEstimateCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const (
		N       = 40  // hosts
		perHost = 200 // events per host
		trials  = 300
	)
	// Fixed population: per-host event values with cross-host variation.
	pop := make([][]float64, N)
	for i := range pop {
		base := rng.Float64() * 10
		pop[i] = make([]float64, perHost)
		for j := range pop[i] {
			pop[i][j] = base + rng.NormFloat64()*2
		}
	}
	total := func(hosts int) (truth float64) {
		for _, events := range pop[:hosts] {
			for _, v := range events {
				truth += v
			}
		}
		return truth
	}
	check := func(name string, truth float64, draw func() (int, []HostTotal)) float64 {
		covered, relErr := 0, 0.0
		for range trials {
			tau, eps, err := EstimateSum(draw())
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(tau-truth) <= eps {
				covered++
			}
			relErr += math.Abs(tau-truth) / truth / trials
		}
		coverage := float64(covered) / trials
		t.Logf("%s: coverage %.3f, mean relative error %.4f", name, coverage, relErr)
		if coverage < 0.85 {
			t.Errorf("%s: 95%% interval empirical coverage = %.3f, want >= 0.85", name, coverage)
		}
		if relErr > 0.5 {
			t.Errorf("%s: mean relative error %.3f, want <= 0.5", name, relErr)
		}
		return relErr
	}

	var relErrs []float64
	for _, rates := range [][2]float64{
		{1.0, 0.5}, {1.0, 0.1}, {0.5, 0.5}, {0.5, 0.1},
		{0.2, 0.2}, {0.1, 0.1}, {0.1, 0.05},
	} {
		hostRate, eventRate := rates[0], rates[1]
		n := int(hostRate * N)
		relErrs = append(relErrs, check(fmt.Sprintf("rates %g/%g", hostRate, eventRate), total(N), func() (int, []HostTotal) {
			hosts := make([]HostTotal, 0, n)
			for _, hi := range rng.Perm(N)[:n] {
				events := pop[hi]
				vals := make([]float64, int(eventRate*float64(len(events))))
				for k, ei := range rng.Perm(len(events))[:len(vals)] {
					vals[k] = events[ei]
				}
				hosts = append(hosts, srswor(len(events), vals...))
			}
			return N, hosts
		}))
	}
	if first, last := relErrs[0], relErrs[len(relErrs)-1]; first >= last {
		t.Errorf("error did not grow with sparser sampling: %.4f at 100%%/50%% vs %.4f at 10%%/5%%", first, last)
	}

	for _, c := range []struct {
		N, n int
		q    float64
	}{{1, 1, 0.5}, {1, 1, 0.1}, {4, 4, 0.5}, {4, 4, 0.1}, {40, 40, 0.05}, {40, 10, 0.2}} {
		check(fmt.Sprintf("Bernoulli q=%g, n=%d of N=%d", c.q, c.n, c.N), total(c.N), func() (int, []HostTotal) {
			hosts := make([]HostTotal, 0, c.n)
			for _, hi := range rng.Perm(c.N)[:c.n] {
				var T, V float64 // as central's moment sums them
				for j, x := range pop[hi] {
					w := float64(1 + 2*j/perHost)
					if rng.Float64() < c.q/w {
						T += w * x
						V += w * (w - c.q) * x * x
					}
				}
				hosts = append(hosts, HostTotal{T: T / c.q, V: V / (c.q * c.q)})
			}
			return c.N, hosts
		})
	}
}

func BenchmarkEstimateSum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hosts := make([]HostTotal, 50)
	for i := range hosts {
		vals := make([]float64, 100)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		hosts[i] = srswor(1000, vals...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EstimateSum(100, hosts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKeepRate(t *testing.T) {
	for _, rate := range []float64{0.5, 0.1, 0.01} {
		thr := Threshold(rate)
		const keys = 20000
		kept := 0
		for k := uint64(0); k < keys; k++ {
			if Keep(42, k, thr) {
				kept++
			}
		}
		if got := float64(kept) / keys; got < rate*0.9 || got > rate*1.1 {
			t.Errorf("rate %g: keep fraction %g, want within ±10%%", rate, got)
		}
	}
}

func TestKeepDeterministic(t *testing.T) {
	thr := Threshold(0.05)
	same, diff := true, true
	for k := uint64(0); k < 1000; k++ {
		ka := Keep(7, k, thr)
		if ka != Keep(7, k, thr) {
			same = false
		}
		if ka != Keep(8, k, thr) {
			diff = false
		}
	}
	if !same {
		t.Error("same seed must keep the same keys")
	}
	if diff {
		t.Error("different seeds should keep different keys")
	}
}

// TestKeepNests: a key kept at a rate is kept at every higher rate, so a
// governor step that halves a rate drops keys and keeps none new.
func TestKeepNests(t *testing.T) {
	for k := uint64(0); k < 20000; k++ {
		for step := 1; step <= 6; step++ {
			if Keep(3, k, Threshold(math.Ldexp(0.3, -step))) && !Keep(3, k, Threshold(math.Ldexp(0.3, 1-step))) {
				t.Fatalf("key %d kept at step %d but not at step %d", k, step, step-1)
			}
		}
	}
}

func TestThresholdClamps(t *testing.T) {
	for k := uint64(0); k < 1000; k++ {
		if !Keep(1, k, Threshold(1)) || !Keep(1, k, Threshold(1.5)) {
			t.Fatalf("rate >= 1 dropped key %d", k)
		}
		if Keep(1, k, Threshold(0)) || Keep(1, k, Threshold(-0.1)) {
			t.Fatalf("rate <= 0 kept key %d", k)
		}
	}
}

func BenchmarkKeep(b *testing.B) {
	thr := Threshold(0.1)
	b.ReportAllocs()
	kept := 0
	for i := 0; i < b.N; i++ {
		if Keep(1, uint64(i), thr) {
			kept++
		}
	}
	_ = kept
}
