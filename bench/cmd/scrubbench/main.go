// Command scrubbench is the repository's one benchmark: it generates its
// inputs from a seed, drives the real Scrub pipeline through its exported
// functions, checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object holding the
// run's verdict and metrics (the end-to-end set, or with -trace 1 the
// per-layer set).
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	scrubbench -workload host-fanout -seed 1 -seconds 10 -trace 0
//	scrubbench -seed 1                  # the whole suite, untraced
//	scrubbench -selfcheck               # measure run-to-run noise, rewrite bench/results/noise.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"scrub/bench/harness"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload in turn): "+fmt.Sprint(harness.Workloads))
	seed := flag.Int64("seed", harness.DefaultSeed, "input seed")
	seconds := flag.Float64("seconds", harness.DefaultSeconds, "length of the measured section")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of runs of every workload at -seed, write noise.json, fail if they disagree beyond the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *selfcheck {
		if *workload != "" || *trace != 0 {
			fatal(fmt.Errorf("-selfcheck always measures every workload, untraced"))
		}
		if err := harness.SelfCheck(*seed, *seconds, os.Stderr); err != nil {
			fatal(err)
		}
		return
	}

	names := harness.Workloads
	if *workload != "" {
		names = []string{*workload}
	}
	ok := true
	for _, name := range names {
		res, err := harness.Run(harness.Options{
			Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Log: os.Stdout,
		})
		if err != nil {
			fatal(err)
		}
		ok = ok && res.Correct
		metrics := res.EndToEnd
		if *trace != 0 {
			metrics = res.Layers
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
			"metrics": metrics,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scrubbench:", err)
	os.Exit(2)
}
