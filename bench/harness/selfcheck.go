package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	// selfCheckRuns is the number of runs in each of the self-check's two sets.
	selfCheckRuns = 5
	// boundsFile holds the end_to_end bounds the self-check tests against;
	// resultsDir receives noise.json and the traced runs' span files. Both
	// are relative to the repository root, where the command runs.
	boundsFile = "BENCHMARK.json"
	resultsDir = "bench/results"
)

// NoiseStat describes one metric of one workload over two interleaved sets
// of runs of the same code on the same seed. A and B hold every run made,
// in order. Bound and OK are set for the gated end-to-end metrics only; the
// ungated timing metrics are measured alongside as the evidence for not
// gating them.
type NoiseStat struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better,omitempty"`
	Bound   float64   `json:"bound,omitempty"`
	A       []float64 `json:"set_a"`
	B       []float64 `json:"set_b"`
	MedianA float64   `json:"median_a"`
	MedianB float64   `json:"median_b"`
	// Diff is how much worse set B's median is than set A's, as a share of
	// A's (negative when B is better). Spread is the distance between the
	// first and third quartile of all runs as a share of their median —
	// both are what the acceptance check computes.
	Diff   float64    `json:"set_to_set_diff"`
	Q      [3]float64 `json:"quartiles"`
	Spread float64    `json:"iqr_share"`
	OK     bool       `json:"within_bound,omitempty"`
}

// reduce fills the medians, the set-to-set difference and the spread.
func (st *NoiseStat) reduce(higherIsBetter bool) {
	st.MedianA, st.MedianB = median(st.A), median(st.B)
	st.Diff = (st.MedianB - st.MedianA) / st.MedianA
	if higherIsBetter {
		st.Diff = -st.Diff
	}
	q1, q2, q3 := quartiles(append(append([]float64(nil), st.A...), st.B...))
	st.Q = [3]float64{q1, q2, q3}
	st.Spread = (q3 - q1) / q2
}

type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// SelfCheck measures the benchmark's own noise: two sets of selfCheckRuns
// runs of every workload on the current tree, all on the one seed so that
// only the machine varies, each run a fresh process, the sets interleaved
// (A B A B …) so both see the same phases of the machine. It rewrites
// bench/results/noise.json from scratch with every run made and fails if,
// for any end-to-end metric, set B's median is worse than set A's by more
// than the metric's bound in BENCHMARK.json or the spread of the runs
// exceeds it.
func SelfCheck(seed int64, seconds float64, log io.Writer) error {
	raw, err := os.ReadFile(boundsFile)
	if err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("selfcheck: %s: %w", boundsFile, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	type workloadNoise struct {
		EndToEnd map[string]*NoiseStat `json:"end_to_end"`
		Timing   map[string]*NoiseStat `json:"timing"`
	}
	noise := map[string]workloadNoise{}
	var failures []string
	for _, w := range Workloads {
		wn := workloadNoise{EndToEnd: map[string]*NoiseStat{}, Timing: map[string]*NoiseStat{}}
		for _, e := range bf.EndToEnd {
			wn.EndToEnd[e.Name] = &NoiseStat{Unit: e.Unit, Better: e.Better, Bound: e.Bound}
		}
		for i := 0; i < 2*selfCheckRuns; i++ {
			gated, timing, err := runChild(self, w, seed, seconds)
			if err != nil {
				return fmt.Errorf("selfcheck: %s run %d: %w", w, i+1, err)
			}
			add := func(st *NoiseStat, v float64) {
				if i%2 == 0 {
					st.A = append(st.A, v)
				} else {
					st.B = append(st.B, v)
				}
			}
			for name, st := range wn.EndToEnd {
				m, ok := gated[name]
				if !ok {
					return fmt.Errorf("selfcheck: %s did not report %s", w, name)
				}
				add(st, m.Value)
			}
			for name, m := range timing {
				if wn.Timing[name] == nil {
					wn.Timing[name] = &NoiseStat{Unit: m.Unit}
				}
				add(wn.Timing[name], m.Value)
			}
			fmt.Fprintf(log, "selfcheck %s run %d/%d done\n", w, i+1, 2*selfCheckRuns)
		}
		for _, e := range bf.EndToEnd {
			st := wn.EndToEnd[e.Name]
			st.reduce(e.Better == "higher")
			// setup_s is exempt from the spread rule, as in the acceptance check.
			st.OK = math.Abs(st.Diff) <= e.Bound && (e.Name == "setup_s" || st.Spread <= e.Bound)
			fmt.Fprintf(log, "  %-16s %-28s medians %12.4f %12.4f  diff %+6.2f%%  spread %5.2f%%  bound %4.1f%%\n",
				w, e.Name, st.MedianA, st.MedianB, 100*st.Diff, 100*st.Spread, 100*e.Bound)
			if !st.OK {
				failures = append(failures, fmt.Sprintf("%s/%s: diff %+.2f%%, spread %.2f%%, bound %.1f%%",
					w, e.Name, 100*st.Diff, 100*st.Spread, 100*e.Bound))
			}
		}
		for _, t := range Timing {
			for _, name := range []string{"run." + t.Name, "run.whole." + t.Name} {
				st := wn.Timing[name]
				if st == nil {
					return fmt.Errorf("selfcheck: %s did not print %s", w, name)
				}
				st.reduce(t.Name == "events_per_s")
				fmt.Fprintf(log, "  %-16s %-28s medians %12.4f %12.4f  diff %+6.2f%%  spread %5.2f%%  not gated\n",
					w, name, st.MedianA, st.MedianB, 100*st.Diff, 100*st.Spread)
			}
		}
		noise[w] = wn
	}

	doc, err := json.MarshalIndent(map[string]any{
		"runs_per_set": selfCheckRuns, "seconds": seconds, "seed": seed, "workloads": noise,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(resultsDir, "noise.json"), append(doc, '\n'), 0o644); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck: two sets of runs of the same code disagree beyond the bounds:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// runChild runs one workload in a fresh process and returns the gated
// metrics from the JSON object on the last line of its output and the
// timing metrics from the report lines ("  run.<name>  <value> <unit>")
// above it.
func runChild(self, workload string, seed int64, seconds float64) (gated, timing map[string]Metric, err error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%w\n%s%s", err, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out struct {
		Correct bool              `json:"correct"`
		Metrics map[string]Metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, nil, fmt.Errorf("last output line is not the result object: %w", err)
	}
	if !out.Correct {
		return nil, nil, fmt.Errorf("run reported incorrect outputs")
	}
	timing = map[string]Metric{}
	for _, line := range lines {
		if f := strings.Fields(line); len(f) == 3 && strings.HasPrefix(f[0], "run.") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("report line %q: %w", line, err)
			}
			timing[f[0]] = Metric{v, f[2]}
		}
	}
	return out.Metrics, timing, nil
}
