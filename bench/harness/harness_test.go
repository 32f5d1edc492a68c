package harness

import (
	"math"
	"os"
	"strings"
	"testing"
)

// exercised lists, per workload, layer metrics that must be non-zero in
// its traced run: the layers on its path. Everything else only has to be
// present and finite.
var exercised = map[string][]string{
	"host-fanout": {"host.log.ns_per_event", "host.log.tuples_per_event", "host.ship.ns_per_tuple",
		"expr.program.ns_per_event", "expr.closure.ns_per_event", "expr.program.nodes",
		"transport.encode.ns_per_tuple", "transport.decode.ns_per_tuple", "transport.send.ns_per_tuple"},
	"host-firehose": {"host.log.ns_per_event", "host.ship.ns_per_tuple", "host.ship.tuples_per_batch",
		"transport.encode.ns_per_tuple", "transport.bytes_per_tuple"},
	"central-mixed": {"central.apply.ns_per_tuple", "central.apply.groupby-hi.ns_per_tuple",
		"central.apply.groupby-lo.ns_per_tuple", "central.apply.topk.ns_per_tuple",
		"central.apply.distinct.ns_per_tuple", "central.apply.join.ns_per_tuple",
		"central.apply.raw.ns_per_tuple", "central.close.windows", "central.close.rows_per_window"},
	"central-sharded": {"sharded.handle.ns_per_tuple", "sharded.tick.ms_p50", "central.close.windows",
		"central.driven.apply.ns_per_tuple", "central.driven.collect.us_per_window",
		"central.driven.partial_bytes_per_window", "central.driven.decode.us_per_window",
		"central.driven.merge.us_per_window", "central.driven.render.us_per_window"},
	"cluster-wire": {"host.log.ns_per_event", "coord.route.ns_per_tuple", "coord.manifest.rtt_us_p50",
		"coord.tick.ms_p50", "coord.shard.skew", "transport.encode.ns_per_tuple"},
}

// TestSmoke runs every workload at about 1/50 scale, traced, and checks
// that the harness still emits every metric it declares, that the
// conservation checks pass, and that the workload pairs that must share an
// input do. It guards against harness rot, not against slowdowns.
func TestSmoke(t *testing.T) {
	hashes := map[string]string{}
	for _, w := range Workloads {
		seconds := 0.3
		if w == "cluster-wire" {
			if testing.Short() {
				continue // its warm-up alone must outlast the 2 s lateness
			}
			seconds = 1
		}
		res, err := Run(Options{Workload: w, Seed: 11, Seconds: seconds, Trace: true, ResultsDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		hashes[w] = res.InputHash
		if !res.Correct || res.FailedShare != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed_share=%v attempted=%d problems=%v",
				w, res.Correct, res.FailedShare, res.Attempted, res.Problems)
		}
		for _, e := range EndToEnd {
			m, ok := res.EndToEnd[e.Name]
			if !ok || m.Unit != e.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w, e.Name, m, ok)
			}
		}
		for _, tm := range Timing {
			for _, set := range []map[string]Metric{res.Quiet, res.Whole} {
				m, ok := set[tm.Name]
				if !ok || m.Unit != tm.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("%s: timing %s = %+v (present %v)", w, tm.Name, m, ok)
				}
			}
		}
		for _, l := range LayerMetrics {
			m, ok := res.Layers[l.Name]
			if !ok || m.Unit != l.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: layer %s = %+v (present %v)", w, l.Name, m, ok)
			}
		}
		if len(res.Layers) != len(LayerMetrics) {
			t.Errorf("%s: %d layer metrics reported, %d declared", w, len(res.Layers), len(LayerMetrics))
		}
		for _, tm := range Timing {
			if res.Layers["run."+tm.Name] != res.Quiet[tm.Name] || res.Layers["run.whole."+tm.Name] != res.Whole[tm.Name] {
				t.Errorf("%s: layer metrics run.%s do not carry the reference section's timing", w, tm.Name)
			}
		}
		for _, name := range exercised[w] {
			if res.Layers[name].Value <= 0 {
				t.Errorf("%s: layer %s on its path reads %v", w, name, res.Layers[name].Value)
			}
		}
		data, err := os.ReadFile(res.TracePath)
		if err != nil || !strings.Contains(string(data), `"spans":[{`) {
			t.Errorf("%s: span file %q unusable: %v", w, res.TracePath, err)
		}
	}
	if hashes["central-mixed"] != hashes["central-sharded"] {
		t.Errorf("central-mixed and central-sharded consumed different inputs: %s vs %s",
			hashes["central-mixed"], hashes["central-sharded"])
	}
	if hashes["host-fanout"] != hashes["host-firehose"] {
		t.Errorf("host-fanout and host-firehose consumed different inputs: %s vs %s",
			hashes["host-fanout"], hashes["host-firehose"])
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// rule the acceptance check applies to the ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v .. %v, want 1.5 .. 4.5", q1, q3)
	}
}

// A failed conservation check must surface as an incorrect result.
func TestCheckReportsMismatch(t *testing.T) {
	prep, err := workloadDefs["host-firehose"](5)
	if err != nil {
		t.Fatal(err)
	}
	pin()
	sys, err := prep.build(0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if err := sys.warmup(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.measure(); err != nil {
		t.Fatal(err)
	}
	hs := sys.(*hostSystem)
	hs.agent.Flush()
	hs.acct[0].shipped-- // a tuple the sink never saw
	if _, failed, problems := sys.check(); failed == 0 || len(problems) == 0 {
		t.Errorf("lost tuple went unnoticed: failed=%d problems=%v", failed, problems)
	}
}
