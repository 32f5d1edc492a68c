// Package scrub's root benchmark suite: one testing.B entry point per
// case-study and methodology table (see DESIGN.md §5 for the experiment
// index). Each benchmark drives the corresponding experiment in
// internal/experiments at a bench-sized configuration and reports the
// experiment's headline metric via b.ReportMetric; cmd/benchrunner prints
// the full paper-style tables at full scale. Host overhead, request
// latency and central throughput are measured by scrubbench (bench/), not
// here.
package scrub

import (
	"testing"
	"time"

	"scrub/internal/experiments"
	"scrub/internal/workload"
)

// BenchmarkE1SpamDetection — §8.1, Figs. 9–10.
func BenchmarkE1SpamDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1SpamDetection(experiments.E1Config{
			Users: 400, Duration: 90 * time.Second,
			Bots: []workload.BotSpec{
				{UserID: 900001, BatchSize: 300, Period: 15 * time.Second},
				{UserID: 900002, BatchSize: 200, Period: 20 * time.Second, StartAt: 10 * time.Second},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Detected) != 2 {
			b.Fatalf("bots detected = %v", res.Detected)
		}
		b.ReportMetric(float64(len(res.Detected)), "bots-found")
		b.ReportMetric(float64(res.Windows), "windows")
	}
}

// BenchmarkE2ExchangeValidation — §8.2, Figs. 11–12.
func BenchmarkE2ExchangeValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E2ExchangeValidation(experiments.E2Config{
			Users: 1200, Duration: 2 * time.Minute, EnableAt: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		before, after := res.CountBeforeAfter("4")
		if before != 0 || after == 0 {
			b.Fatalf("onboarding shape broken: before=%d after=%d", before, after)
		}
		b.ReportMetric(float64(after), "new-exchange-imps")
	}
}

// BenchmarkE3ABTesting — §8.3, Figs. 13–15.
func BenchmarkE3ABTesting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E3ABTesting(experiments.E3Config{
			Users: 2500, Duration: 3 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.A.CTR <= 0 || res.B.CTR <= res.A.CTR {
			b.Fatalf("A/B shape broken: %+v", res)
		}
		b.ReportMetric(res.B.CTR/res.A.CTR, "ctr-lift-B/A")
		b.ReportMetric(res.B.CPM/res.A.CPM, "cpm-ratio-B/A")
	}
}

// BenchmarkE4Exclusions — §8.4, Figs. 16–17.
func BenchmarkE4Exclusions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E4Exclusions(experiments.E4Config{
			Users: 400, Duration: time.Minute, LineItems: 80,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalJoined == 0 {
			b.Fatal("no joined rows")
		}
		b.ReportMetric(float64(res.TotalJoined), "joined-rows")
		b.ReportMetric(float64(res.ExclusionEventsLogged), "raw-events")
	}
}

// BenchmarkE5Cannibalization — §8.5, Figs. 18–19.
func BenchmarkE5Cannibalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E5Cannibalization(experiments.E5Config{
			Users: 800, Duration: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.LambdaWins != 0 || res.MinWinnerAvg <= res.LambdaBandHigh {
			b.Fatalf("cannibalization shape broken: %+v", res)
		}
		b.ReportMetric(res.MinWinnerAvg-res.LambdaBandHigh, "price-gap-$")
	}
}

// BenchmarkE6FrequencyCap — §8.6.
func BenchmarkE6FrequencyCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E6FrequencyCap(experiments.E6Config{
			Users: 400, CorruptUsers: 3, Duration: 2 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.OverServed) == 0 {
			b.Fatal("no over-served users")
		}
		b.ReportMetric(float64(len(res.OverServed)), "corrupt-users-found")
	}
}

// BenchmarkP5VsLogging — §1/§8.1 logging contrast.
func BenchmarkP5VsLogging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.P5VsLogging(experiments.P5Config{
			Users: 500, Duration: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.BytesRatio < 1 {
			b.Fatalf("logging cheaper than Scrub? ratio %.2f", res.BytesRatio)
		}
		b.ReportMetric(res.BytesRatio, "bytes-ratio-log/scrub")
	}
}

// BenchmarkA1Ablation — host-side vs central aggregation (§4/§6 design
// choice).
func BenchmarkA1Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.A1HostVsCentralAggregation(experiments.A1Config{
			Events: 500000, Cardinalities: []int{100, 100000},
		})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.ScrubNsPerEvent, "scrub-ns/event")
		b.ReportMetric(last.AblatedNsPerEvent, "ablated-ns/event")
		b.ReportMetric(float64(last.AblatedGroups), "host-resident-groups")
	}
}

// BenchmarkA2Baggage — baggage propagation vs on-demand queries (§8.4
// contrast with Pivot-Tracing-style systems).
func BenchmarkA2Baggage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.A2BaggageVsOnDemand(experiments.A2Config{
			Users: 300, Duration: time.Minute, LineItems: 80,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BaggageMeanBytes, "baggage-bytes/req")
		b.ReportMetric(res.Ratio, "bytes-ratio-active")
	}
}
