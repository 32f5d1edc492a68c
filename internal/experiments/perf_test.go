package experiments

import (
	"math"
	"testing"
	"time"
)

func TestP3SamplingAccuracy(t *testing.T) {
	res, err := P3SamplingAccuracy(P3Config{Hosts: 30, PerHost: 200, Trials: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truth <= 0 || len(res.Points) == 0 {
		t.Fatal("degenerate result")
	}
	for _, p := range res.Points {
		if p.Coverage < 0.85 {
			t.Errorf("rates %g/%g: coverage %.2f below nominal band", p.HostRate, p.EventRate, p.Coverage)
		}
		if p.MeanRelErr > 0.5 {
			t.Errorf("rates %g/%g: rel err %.3f too large", p.HostRate, p.EventRate, p.MeanRelErr)
		}
	}
	// Error grows as sampling rates shrink: the full-ish setting beats
	// the sparsest one.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.MeanRelErr >= last.MeanRelErr {
		t.Errorf("error did not grow with sparser sampling: %.4f vs %.4f", first.MeanRelErr, last.MeanRelErr)
	}
	if tab := res.Table(); len(tab.Rows) != len(res.Points) {
		t.Error("table rows")
	}
}

func TestP5VsLogging(t *testing.T) {
	res, err := P5VsLogging(P5Config{Users: 400, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrubTuplesShipped == 0 || res.LogEventsShipped == 0 {
		t.Fatalf("degenerate: %+v", res)
	}
	// The architectural claim: logging ships far more bytes.
	if res.BytesRatio < 2 {
		t.Errorf("bytes ratio = %.1f, logging should clearly exceed Scrub", res.BytesRatio)
	}
	// Both sides answer the same question.
	if res.ScrubRows == 0 || res.LogRows == 0 {
		t.Error("one side produced no rows")
	}
	if res.LogScanElapsed <= 0 {
		t.Error("scan latency unmeasured")
	}
	if tab := res.Table(); len(tab.Rows) < 4 {
		t.Error("table rows")
	}
}

func TestP6Sketches(t *testing.T) {
	res, err := P6Sketches(P6Config{StreamLen: 200000, Ks: []int{5, 10}, Cardinalities: []int{1000, 100000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.TopK {
		if p.Precision < 0.8 {
			t.Errorf("TOP_%d precision %.2f too low", p.K, p.Precision)
		}
		if p.MaxCntErr > 0.2 {
			t.Errorf("TOP_%d count error %.3f too high", p.K, p.MaxCntErr)
		}
	}
	for _, p := range res.HLL {
		if p.RelErr > 6*p.TheoryErr+0.001 {
			t.Errorf("HLL @%d: rel err %.4f vs theory %.4f", p.Cardinality, p.RelErr, p.TheoryErr)
		}
	}
	if math.IsNaN(res.HLL[0].RelErr) {
		t.Error("NaN error")
	}
	if tab := res.Table(); len(tab.Rows) == 0 {
		t.Error("empty table")
	}
}

func TestA1HostVsCentralAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := A1HostVsCentralAggregation(A1Config{Events: 300000, Cardinalities: []int{100, 100000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	low, high := res.Points[0], res.Points[1]
	// The ablated variant's resident state tracks cardinality; Scrub's
	// host path holds none.
	if high.AblatedGroups <= low.AblatedGroups {
		t.Errorf("ablated groups did not grow with cardinality: %d vs %d",
			low.AblatedGroups, high.AblatedGroups)
	}
	if high.AblatedGroups < 50000 {
		t.Errorf("high-cardinality groups = %d, want ~100k", high.AblatedGroups)
	}
	for _, p := range res.Points {
		if p.ScrubNsPerEvent <= 0 || p.AblatedNsPerEvent <= 0 {
			t.Errorf("degenerate timing: %+v", p)
		}
	}
	if tab := res.Table(); len(tab.Rows) != 2 {
		t.Error("table rows")
	}
}

func TestA2BaggageVsOnDemand(t *testing.T) {
	res, err := A2BaggageVsOnDemand(A2Config{Users: 300, Duration: time.Minute, LineItems: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.BaggageTotal == 0 {
		t.Fatalf("degenerate: %+v", res)
	}
	// Exclusions dominate: baggage per request is hundreds of bytes even
	// at this small portfolio.
	if res.BaggageMeanBytes < 100 {
		t.Errorf("baggage mean = %.0f bytes/request, implausibly small", res.BaggageMeanBytes)
	}
	if res.BaggageP99Bytes < res.BaggageMeanBytes {
		t.Error("p99 below mean")
	}
	if res.ScrubTuples == 0 {
		t.Error("Scrub shipped nothing while the query was active")
	}
	// The architectural point: always-on baggage outweighs on-demand
	// shipping even while the query is running (selection+projection);
	// with the query off the ratio is infinite.
	if res.Ratio < 1 {
		t.Errorf("ratio = %.2f, baggage should exceed Scrub", res.Ratio)
	}
	if tab := res.Table(); len(tab.Rows) < 6 {
		t.Error("table rows")
	}
}
