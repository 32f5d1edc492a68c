// Command benchrunner regenerates the paper's case-study and methodology
// tables (see DESIGN.md §5 and EXPERIMENTS.md): E1–E6, P3, P5, P6, A1 and
// A2, at full (or quick) scale, each printed as an aligned text table with
// the paper's qualitative claim attached. Beyond the paper's tables it
// also runs C1, a chaos soak over real TCP that pins the reproduction's
// failure-domain contract (degraded windows, lease eviction, spill
// redelivery), and G1, the overhead governor under an expensive query.
//
// Usage:
//
//	benchrunner [-only E1,P3,...] [-quick] [-seed N]
//
// The host-overhead, request-latency and central-throughput claims are
// measured by scrubbench (bench/, BENCHMARK.json), not here: this command
// prints tables and writes no files.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"scrub/internal/experiments"
)

type runner struct {
	id  string
	run func(quick bool, seed int64) (*experiments.Table, error)
}

var runners = []runner{
	{"E1", runE1}, {"E2", runE2}, {"E3", runE3},
	{"E4", runE4}, {"E5", runE5}, {"E6", runE6},
	{"P3", runP3}, {"P5", runP5}, {"P6", runP6},
	{"A1", runA1}, {"A2", runA2},
	{"C1", runC1},
	{"G1", runG1},
}

// selectRunners returns the runners only names (comma-separated ids, any
// case, spaces ignored) in table order; an empty list selects them all. An
// id that names no runner is an error, so a typo cannot pass by running
// nothing.
func selectRunners(only string) ([]runner, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return runners, nil
	}
	var sel []runner
	for _, r := range runners {
		if want[r.id] {
			sel = append(sel, r)
			delete(want, r.id)
		}
	}
	if len(want) == 0 {
		return sel, nil
	}
	unknown := make([]string, 0, len(want))
	for id := range want {
		unknown = append(unknown, id)
	}
	sort.Strings(unknown)
	valid := make([]string, len(runners))
	for i, r := range runners {
		valid[i] = r.id
	}
	return nil, fmt.Errorf("unknown experiment id(s) %s; valid ids: %s",
		strings.Join(unknown, ","), strings.Join(valid, ","))
}

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,P3); empty runs all")
	quick := flag.Bool("quick", false, "smaller configurations for a fast pass")
	seed := flag.Int64("seed", 0, "override experiment seeds (0 keeps per-experiment defaults)")
	flag.Parse()

	selected, err := selectRunners(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(2)
	}
	failures := 0
	for _, r := range selected {
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
