// Command benchrunner regenerates the paper's case-study and comparison
// tables (see DESIGN.md §5 and EXPERIMENTS.md): E1–E6, P5, A1 and A2, each
// in its one configuration and printed as an aligned text table with the
// paper's qualitative claim attached. Beyond the paper's tables it also
// runs C1, a chaos soak over real TCP that pins the reproduction's
// failure-domain contract (degraded windows, lease eviction, redelivery
// of what a severed connection left undelivered).
//
// Usage:
//
//	benchrunner [-only E1,P5,...]
//
// E1–E6, P5 and A2 run on a fixed virtual epoch, so their tables repeat
// to the byte apart from wall-time notes; testdata/tables.golden pins
// them (TestGolden). The host-overhead, request-latency and
// central-throughput claims are measured by scrubbench (bench/,
// BENCHMARK.json), not here: this command prints tables and writes no
// files.
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
	run func() (*experiments.Table, error)
}

// tabled adapts an experiment to a runner: run it, render its table.
func tabled[R interface{ Table() *experiments.Table }](exp func() (R, error)) func() (*experiments.Table, error) {
	return func() (*experiments.Table, error) {
		res, err := exp()
		if err != nil {
			return nil, err
		}
		return res.Table(), nil
	}
}

var runners = []runner{
	{"E1", tabled(experiments.E1SpamDetection)},
	{"E2", tabled(experiments.E2ExchangeValidation)},
	{"E3", tabled(experiments.E3ABTesting)},
	{"E4", tabled(experiments.E4Exclusions)},
	{"E5", tabled(experiments.E5Cannibalization)},
	{"E6", tabled(experiments.E6FrequencyCap)},
	{"P5", tabled(experiments.P5VsLogging)},
	{"A1", tabled(experiments.A1HostVsCentralAggregation)},
	{"A2", tabled(experiments.A2BaggageVsOnDemand)},
	{"C1", tabled(experiments.C1ChaosSoak)},
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
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,P5); empty runs all")
	flag.Parse()

	selected, err := selectRunners(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(2)
	}
	failures := 0
	for _, r := range selected {
		start := time.Now()
		tab, err := r.run()
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
