// Command benchrunner regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 and EXPERIMENTS.md). It runs the twelve
// experiments at full (or quick) scale and prints each as an aligned
// text table with the paper's qualitative claim attached. Beyond the
// paper's tables it also runs C1, a chaos soak over real TCP that pins
// the reproduction's failure-domain contract (degraded windows, lease
// eviction, spill redelivery).
//
// Usage:
//
//	benchrunner [-only E1,P3,...] [-quick] [-seed N]
//
// Numbers tracked across PRs come from scrubbench (bench/, BENCHMARK.json),
// not from here: this command prints tables and writes no files.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"scrub/internal/experiments"
)

type runner struct {
	id  string
	run func(quick bool, seed int64) (*experiments.Table, error)
}

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,P3); empty runs all")
	quick := flag.Bool("quick", false, "smaller configurations for a fast pass")
	seed := flag.Int64("seed", 0, "override experiment seeds (0 keeps per-experiment defaults)")
	flag.Parse()

	runners := []runner{
		{"E1", runE1}, {"E2", runE2}, {"E3", runE3},
		{"E4", runE4}, {"E5", runE5}, {"E6", runE6},
		{"P1", runP1}, {"PS", runPS}, {"P2", runP2}, {"P3", runP3},
		{"P4", runP4}, {"P5", runP5}, {"P6", runP6},
		{"A1", runA1}, {"A2", runA2},
		{"C1", runC1},
		{"G1", runG1},
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	failures := 0
	for _, r := range runners {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		start := time.Now()
		tab, err := r.run(*quick, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %v\n", r.id, err)
			failures++
			continue
		}
		tab.Notes = append(tab.Notes, fmt.Sprintf("experiment wall time: %s", time.Since(start).Round(time.Millisecond)))
		tab.Fprint(os.Stdout)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

func runE1(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.E1Config{Seed: seed}
	if quick {
		cfg.Users, cfg.Duration = 400, 90*time.Second
	} else {
		cfg.Users, cfg.Duration = 2000, 10*time.Minute
	}
	res, err := experiments.E1SpamDetection(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runE2(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.E2Config{Seed: seed}
	if quick {
		cfg.Users, cfg.Duration, cfg.EnableAt = 1200, 2*time.Minute, time.Minute
	} else {
		cfg.Users, cfg.Duration = 3000, 6*time.Minute
	}
	res, err := experiments.E2ExchangeValidation(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runE3(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.E3Config{Seed: seed}
	if quick {
		cfg.Users, cfg.Duration = 2000, 2*time.Minute
	} else {
		cfg.Users, cfg.Duration = 6000, 6*time.Minute
	}
	res, err := experiments.E3ABTesting(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runE4(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.E4Config{Seed: seed}
	if quick {
		cfg.Users, cfg.Duration, cfg.LineItems = 400, time.Minute, 80
	} else {
		cfg.Users, cfg.Duration, cfg.LineItems = 1000, 3*time.Minute, 200
	}
	res, err := experiments.E4Exclusions(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runE5(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.E5Config{Seed: seed}
	if quick {
		cfg.Users, cfg.Duration = 800, time.Minute
	} else {
		cfg.Users, cfg.Duration = 2000, 4*time.Minute
	}
	res, err := experiments.E5Cannibalization(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runE6(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.E6Config{Seed: seed}
	if quick {
		cfg.Users, cfg.Duration = 400, 2*time.Minute
	} else {
		cfg.Users, cfg.Duration = 1500, 5*time.Minute
	}
	res, err := experiments.E6FrequencyCap(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runP1(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.P1Config{Seed: seed}
	if quick {
		cfg.Requests, cfg.QuerySweep = 10000, []int{0, 4, 16}
	} else {
		cfg.Requests = 60000
	}
	res, err := experiments.P1HostOverhead(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runPS(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.PSConfig{Seed: seed}
	if quick {
		cfg.Requests, cfg.QuerySweep, cfg.Reps = 6000, []int{0, 8, 32}, 3
	} else {
		cfg.Requests = 30000
	}
	res, err := experiments.PSQueryScale(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runP2(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.P2Config{Seed: seed}
	if quick {
		cfg.Requests = 8000
	} else {
		cfg.Requests = 40000
	}
	res, err := experiments.P2RequestLatency(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runP3(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.P3Config{Seed: seed}
	if quick {
		cfg.Hosts, cfg.PerHost, cfg.Trials = 30, 200, 120
	}
	res, err := experiments.P3SamplingAccuracy(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runP4(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.P4Config{Seed: seed}
	if quick {
		cfg.Tuples, cfg.Cardinalities = 100000, []int{10, 1000}
	}
	res, err := experiments.P4CentralThroughput(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runP5(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.P5Config{Seed: seed}
	if quick {
		cfg.Users, cfg.Duration = 400, time.Minute
	} else {
		cfg.Users, cfg.Duration = 1200, 3*time.Minute
	}
	res, err := experiments.P5VsLogging(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runP6(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.P6Config{Seed: seed}
	if quick {
		cfg.StreamLen = 200000
	}
	res, err := experiments.P6Sketches(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runA2(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.A2Config{Seed: seed}
	if quick {
		cfg.Users, cfg.Duration, cfg.LineItems = 300, time.Minute, 80
	} else {
		cfg.Users, cfg.Duration, cfg.LineItems = 800, 2*time.Minute, 200
	}
	res, err := experiments.A2BaggageVsOnDemand(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runC1(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.C1Config{Seed: seed}
	if quick {
		cfg.Duration = 6 * time.Second
	} else {
		cfg.Duration = 30 * time.Second
	}
	res, err := experiments.C1ChaosSoak(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runG1(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.G1Config{Seed: seed}
	if quick {
		cfg.Requests = 10000
	} else {
		cfg.Requests = 40000
	}
	res, err := experiments.G1Governor(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

func runA1(quick bool, seed int64) (*experiments.Table, error) {
	cfg := experiments.A1Config{Seed: seed}
	if quick {
		cfg.Events = 500000
	}
	res, err := experiments.A1HostVsCentralAggregation(cfg)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}
