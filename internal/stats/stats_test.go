package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRegIncBetaBoundaries(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("boundaries wrong")
	}
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if !close(RegIncBeta(1, 1, x), x, 1e-10) {
			t.Errorf("I_%g(1,1) = %g", x, RegIncBeta(1, 1, x))
		}
	}
	// I_x(a,b) + I_{1-x}(b,a) = 1.
	for _, x := range []float64{0.2, 0.7} {
		if !close(RegIncBeta(2.5, 4, x)+RegIncBeta(4, 2.5, 1-x), 1, 1e-10) {
			t.Errorf("symmetry broken at %g", x)
		}
	}
}

func TestTCDFKnownValues(t *testing.T) {
	// t CDF with df=1 is Cauchy: F(t) = 1/2 + atan(t)/pi.
	for _, tt := range []float64{-3, -1, 0, 0.5, 2, 10} {
		want := 0.5 + math.Atan(tt)/math.Pi
		if got := TCDF(tt, 1); !close(got, want, 1e-9) {
			t.Errorf("TCDF(%g, 1) = %g, want %g", tt, got, want)
		}
	}
	// df=2 has closed form F(t) = 1/2 + t / (2*sqrt(2+t^2)).
	for _, tt := range []float64{-2, 0, 1, 5} {
		want := 0.5 + tt/(2*math.Sqrt(2+tt*tt))
		if got := TCDF(tt, 2); !close(got, want, 1e-9) {
			t.Errorf("TCDF(%g, 2) = %g, want %g", tt, got, want)
		}
	}
	if !math.IsNaN(TCDF(1, 0)) {
		t.Error("TCDF with df=0 should be NaN")
	}
}

func TestTQuantileTableValues(t *testing.T) {
	// Classic t-table critical values, two-sided alpha=0.05 → p=0.975.
	table := []struct {
		df   float64
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {5, 2.571}, {10, 2.228},
		{30, 2.042}, {100, 1.984}, {1000, 1.962},
	}
	for _, tc := range table {
		got, err := TQuantile(0.975, tc.df)
		if err != nil {
			t.Fatalf("TQuantile(0.975, %g): %v", tc.df, err)
		}
		if !close(got, tc.want, 0.002) {
			t.Errorf("t_{%g, 0.975} = %g, want %g", tc.df, got, tc.want)
		}
	}
}

func TestTQuantileRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 0.01 + 0.98*rng.Float64()
		df := float64(1 + rng.Intn(50))
		q, err := TQuantile(p, df)
		if err != nil {
			return false
		}
		return close(TCDF(q, df), p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTQuantileEdges(t *testing.T) {
	if q, err := TQuantile(0.5, 7); err != nil || q != 0 {
		t.Errorf("median should be 0: %g, %v", q, err)
	}
	if _, err := TQuantile(0, 5); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := TQuantile(1, 5); err == nil {
		t.Error("p=1 should fail")
	}
	if _, err := TQuantile(0.9, 0); err == nil {
		t.Error("df=0 should fail")
	}
	// Symmetry.
	hi, _ := TQuantile(0.9, 6)
	lo, _ := TQuantile(0.1, 6)
	if !close(hi, -lo, 1e-9) {
		t.Errorf("asymmetric quantiles: %g vs %g", hi, lo)
	}
}

func TestNormQuantile(t *testing.T) {
	// The standard normal quantiles are the large-df limit of the t
	// quantile; at df=1e7 the t-z gap is below 1e-6.
	table := map[float64]float64{
		0.975: 1.959964, 0.995: 2.575829, 0.841344746: 1.0, 0.025: -1.959964,
	}
	for p, want := range table {
		got, err := TQuantile(p, 1e7)
		if err != nil || !close(got, want, 1e-5) {
			t.Errorf("TQuantile(%g, 1e7) = %g, %v; want normal %g", p, got, err, want)
		}
	}
	if q, err := TQuantile(0.5, 1e7); err != nil || q != 0 {
		t.Errorf("normal median = %g, %v; want 0", q, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := map[float64]float64{
		0: 15, 100: 50, 50: 35,
		25: 20, // exact rank
		5:  16, // interpolated: rank 0.2 between 15 and 20
	}
	for p, want := range cases {
		if got := Percentile(xs, p); !close(got, want, 1e-9) {
			t.Errorf("Percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Input not mutated.
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("Percentile mutated input")
	}
}
