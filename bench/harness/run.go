// Package harness drives the real Scrub pipeline through its exported
// functions and measures it from outside: end to end with tracing off,
// and layer by layer in a separate traced run. See bench/README.md for
// every metric's definition and the reasoning behind each workload.
package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// Workloads lists the benchmark's workloads in suite order.
var Workloads = []string{"host-fanout", "host-firehose", "central-mixed", "central-sharded", "cluster-wire"}

// EndToEnd lists the gated end-to-end metrics — the ones BENCHMARK.json
// bounds — with their units, the same on every workload. They are the two
// of the issue's eight that repeat on this machine. failed_share is
// reported beside them (and as the attempted / failed counts) but cannot be
// gated: it is exactly zero on a passing run, and a bound is a share of the
// parent's value. The five timing metrics are reported by every run too
// (Timing) but are layer metrics, not gated ones: see bench/README.md,
// "Bounds and noise".
var EndToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

// Timing lists the timing metrics of an untraced measured section. Every
// run prints them; a traced run reports the ones of its reference section
// as the layer metrics run.<name> (quiet slices) and run.whole.<name>.
var Timing = []struct{ Name, Unit string }{
	{"events_per_s", "1/s"},
	{"cpu_ns_per_event", "ns"},
	{"call_ns_per_event", "ns"},
	{"emit_lag_p50_ms", "ms"},
	{"emit_lag_p95_ms", "ms"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Options selects and sizes one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds sizes the measured section: every workload measures a fixed
	// amount of work equal to Seconds × its per-second constant (params.go),
	// never a count calibrated during the run.
	Seconds float64
	// Trace runs the traced variant: a short untraced reference section,
	// then the traced section and the standalone layer replays.
	Trace bool
	// ResultsDir receives trace-<workload>.json from a traced run; empty
	// means bench/results. Only the tests set it.
	ResultsDir string
	// Log receives the human-readable report; nil discards it.
	Log io.Writer
}

// Result is one run's outcome.
type Result struct {
	Workload  string
	Seed      int64
	InputHash string
	// Correct is false when any conservation check failed; Failed then
	// counts the tuples unaccounted for (plus counted drops).
	Correct     bool
	Attempted   uint64
	Failed      uint64
	FailedShare float64
	Problems    []string
	// EndToEnd and the timing figures come from an untraced section only:
	// Quiet holds each timing metric as the section's quiet slices give it,
	// Whole over the section in one piece. Layers is filled by a traced run.
	EndToEnd     map[string]Metric
	Quiet, Whole map[string]Metric
	Layers       map[string]Metric
	// LagSamples and CallSamples count the samples behind the lag and
	// call-time metrics.
	LagSamples, CallSamples int
	TracePath               string
}

// lagSample is one output's emit lag and when, on the clock the system's
// marks use, the output left.
type lagSample struct {
	at int64
	ms float64
}

// mark is a slice boundary inside a measured section: the system's clock,
// the CPU the system had used, the events it had completed and the entry
// calls timed so far.
type mark struct {
	at, cpuNs int64
	events    uint64
	calls     int
}

// measurement is what one measured section yields, in workload-neutral
// form; system implementations fill it.
type measurement struct {
	sec    *section
	events uint64      // events (host, cluster) or tuples (central) completed
	callNs []float64   // per burst/batch: wall inside the entry call ÷ items
	lags   []lagSample // emit lag per output
	lateMs []float64   // generator lateness per burst (paced workloads)
	// waitCPUNs is CPU the load generator burned busy-waiting for its
	// schedule so far; it is the benchmark's, not the system's.
	waitCPUNs int64
	// marks cut the section into slicesPerRun slices of equal work, the
	// last one ending with the section.
	marks []mark
	// freeze, when set, stops the system changing its state by itself while
	// heap_live_mb is read (cluster-wire: its windows close by the clock).
	freeze func() (thaw func())
}

// cpuNs is the CPU the system under test used in the section.
func (m *measurement) cpuNs() float64 { return float64(m.sec.CPUNs - m.waitCPUNs) }

// markAt records a slice boundary: at on the system's clock, with events
// completed since the section began.
func (m *measurement) markAt(at int64, events uint64) {
	m.marks = append(m.marks, mark{at: at, cpuNs: cpuNanos() - m.waitCPUNs, events: events, calls: len(m.callNs)})
}

// release drops the sample buffers once they have been reduced to metrics,
// so that the live-heap reading that follows holds the system's state and
// not the harness's samples. The section totals stay.
func (m *measurement) release() { m.callNs, m.lags, m.lateMs, m.marks = nil, nil, nil, nil }

// quiet reduces the section slice by slice to the timing metrics as the
// code delivers them when the machine leaves it alone. The machine this
// runs on slows by a third to three quarters for seconds at a time (a
// neighbour on the same socket), in episodes that take anything from none
// to all of a run. Rates and costs have a floor the code sets, so they are
// taken over the best slice: events per second, CPU per event, the median
// entry call. A lag quantile has no floor — a slice that happens to hold
// the cheap queries' windows reads low — so the lags are pooled over the
// quieter half of the slices (CPU per event at or below the median
// slice's) and the quantiles taken over that pool. A change that slows
// every slice moves these figures; one that stalls only some does not, and
// shows in whole() instead.
func (m *measurement) quiet() map[string]float64 {
	var rate, cpu, call []float64
	var lags [][]float64 // per slice, parallel to cpu
	sort.Slice(m.lags, func(i, j int) bool { return m.lags[i].at < m.lags[j].at })
	li := 0
	for i := 1; i < len(m.marks); i++ {
		a, b := m.marks[i-1], m.marks[i]
		for li < len(m.lags) && m.lags[li].at <= a.at {
			li++
		}
		ev := float64(b.events - a.events)
		if ev == 0 {
			continue
		}
		rate = append(rate, ev/(float64(b.at-a.at)/1e9))
		cpu = append(cpu, float64(b.cpuNs-a.cpuNs)/ev)
		if b.calls > a.calls {
			call = append(call, median(m.callNs[a.calls:b.calls]))
		}
		var ms []float64
		for ; li < len(m.lags) && m.lags[li].at <= b.at; li++ {
			ms = append(ms, m.lags[li].ms)
		}
		lags = append(lags, ms)
	}
	var pool []float64
	for i, typical := 0, median(cpu); i < len(lags); i++ {
		if cpu[i] <= typical {
			pool = append(pool, lags[i]...)
		}
	}
	return map[string]float64{
		"events_per_s":      quantile(rate, 1),
		"cpu_ns_per_event":  quantile(cpu, 0),
		"call_ns_per_event": quantile(call, 0),
		"emit_lag_p50_ms":   quantile(pool, 0.50),
		"emit_lag_p95_ms":   quantile(pool, 0.95),
	}
}

// whole reduces the section in one piece: the figures a single stopwatch
// around it would give, interference and stalls included.
func (m *measurement) whole() map[string]float64 {
	ms := make([]float64, len(m.lags))
	for i, l := range m.lags {
		ms[i] = l.ms
	}
	ev := float64(m.events)
	return map[string]float64{
		"events_per_s":      ev / m.sec.Wall.Seconds(),
		"cpu_ns_per_event":  m.cpuNs() / ev,
		"call_ns_per_event": median(m.callNs),
		"emit_lag_p50_ms":   quantile(ms, 0.50),
		"emit_lag_p95_ms":   quantile(ms, 0.95),
	}
}

// system is one constructed, query-installed, connected pipeline.
type system interface {
	// warmup runs the fixed warm-up; it is charged to setup_s.
	warmup() error
	// measure runs the fixed measured section. The samples it returns are
	// the caller's: the system keeps no reference to them.
	measure() (*measurement, error)
	// check stops the queries, drains every output and runs the
	// conservation checks; it returns tuples matched, tuples unaccounted
	// for, and a description of each violated identity.
	check() (attempted, failed uint64, problems []string)
	// layers reports the per-layer metrics the traced section gathered and
	// runs the workload's standalone layer replays, recording their spans.
	layers(m *measurement, tr *Tracer, out map[string]Metric) error
	close()
}

// prepared is a workload with its input generated (untimed): the content
// hash and a constructor, called once per set-up repetition, that builds a
// system sized to measure the given seconds.
type prepared struct {
	hash  string
	build func(seconds float64, tr *Tracer) (system, error)
}

// workloadDefs maps a workload name to its input generator.
var workloadDefs = map[string]func(seed int64) (*prepared, error){}

// pin applies the run discipline: two Ps (the machine has two cores) and
// the default GC target, whatever the environment says.
func pin() {
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
}

// spareThreads makes the runtime create its operating-system threads now.
// Each costs 5.5 KB of heap (the m and its profiling stack), and how many
// a run ends up starting is scheduling luck; created before the live-heap
// baseline and parked, they are reused instead, and the host workloads'
// 60–160 KB of state no longer reads a thread more or less (±3.4 %).
func spareThreads() {
	const n = 16
	var locked, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		locked.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			locked.Done()
			<-release
		}()
	}
	locked.Wait()
	close(release)
	done.Wait()
}

// Run executes one workload once.
func Run(opt Options) (*Result, error) {
	def, ok := workloadDefs[opt.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opt.Workload, Workloads)
	}
	if opt.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	if opt.ResultsDir == "" {
		opt.ResultsDir = resultsDir
	}
	pin()

	prep, err := def(opt.Seed)
	if err != nil {
		return nil, err
	}
	hash, build := prep.hash, prep.build
	res := &Result{
		Workload: opt.Workload, Seed: opt.Seed, InputHash: hash,
		EndToEnd: map[string]Metric{},
	}
	fmt.Fprintf(opt.Log, "workload %s seed %d input %s\n", opt.Workload, opt.Seed, hash)
	// Everything allocated so far is input; what the heap holds beyond
	// this after the measured section is the system's state.
	spareThreads()
	inputHeap := heapLive(nil)

	refSeconds, setupReps := opt.Seconds, setupReps
	if opt.Trace {
		refSeconds, setupReps = opt.Seconds*traceReferenceShare, 1
	}

	// Untraced section: construct, warm, measure, check.
	var setups []float64
	var sys system
	for rep := 0; rep < setupReps; rep++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		if sys, err = build(refSeconds, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", opt.Workload, err)
		}
		if err = sys.warmup(); err != nil {
			sys.close()
			return nil, fmt.Errorf("%s: warm-up: %w", opt.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m, err := sys.measure()
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("%s: measure: %w", opt.Workload, err)
	}
	res.EndToEnd["setup_s"] = Metric{median(setups), "s"}
	fillTiming(res, m)
	m.release()
	// State size: what the heap holds beyond the input, with the queries
	// still installed and the last windows open.
	live := max(float64(heapLive(m.freeze))-float64(inputHeap), 0)
	res.EndToEnd["heap_live_mb"] = Metric{live / (1 << 20), "MB"}
	res.Attempted, res.Failed, res.Problems = sys.check()
	sys.close()

	if opt.Trace {
		if err := runTraced(opt, res, build, m); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	report(opt.Log, res)
	return res, nil
}

// fillTiming reduces the measured section to the timing metrics. Where a
// run is too short for a figure by slices (smoke runs: no quiet slice saw
// an output), the whole section's stands in.
func fillTiming(res *Result, m *measurement) {
	quiet, whole := m.quiet(), m.whole()
	res.Quiet, res.Whole = map[string]Metric{}, map[string]Metric{}
	for _, t := range Timing {
		res.Whole[t.Name] = Metric{whole[t.Name], t.Unit}
		v := quiet[t.Name]
		if math.IsNaN(v) {
			v = whole[t.Name]
		}
		res.Quiet[t.Name] = Metric{v, t.Unit}
	}
	res.LagSamples, res.CallSamples = len(m.lags), len(m.callNs)
}

// runTraced builds the system again with tracing wrappers in place, runs
// the rest of the measured work through it, gathers the per-layer
// metrics, runs the standalone layer replays and writes the span file.
func runTraced(opt Options, res *Result, build func(float64, *Tracer) (system, error), ref *measurement) error {
	tr := newTracer(fmt.Sprintf("%s/seed=%d", opt.Workload, opt.Seed))
	sys, err := build(opt.Seconds*(1-traceReferenceShare), tr)
	if err != nil {
		return fmt.Errorf("%s: traced set-up: %w", opt.Workload, err)
	}
	defer sys.close()
	if err := sys.warmup(); err != nil {
		return fmt.Errorf("%s: traced warm-up: %w", opt.Workload, err)
	}
	m, err := sys.measure()
	if err != nil {
		return fmt.Errorf("%s: traced measure: %w", opt.Workload, err)
	}
	attempted, failed, problems := sys.check()
	res.Attempted += attempted
	res.Failed += failed
	res.Problems = append(res.Problems, problems...)

	out := map[string]Metric{}
	for _, name := range LayerMetrics {
		out[name.Name] = Metric{0, name.Unit}
	}
	if err := sys.layers(m, tr, out); err != nil {
		return fmt.Errorf("%s: layers: %w", opt.Workload, err)
	}

	ev := float64(m.events)
	set := func(name string, v float64) { out[name] = Metric{v, out[name].Unit} }
	set("rt.alloc_b_per_event", float64(m.sec.Bytes)/ev)
	set("rt.allocs_per_event", float64(m.sec.Allocs)/ev)
	set("rt.gc_cycles", float64(m.sec.GCs))
	set("rt.gc_pause_ms_total", float64(m.sec.PauseN)/1e6)
	set("rt.rss_peak_mb", rssPeakMB())
	if len(m.lateMs) > 0 {
		set("gen.late_ms_p95", quantile(m.lateMs, 0.95))
	}
	untraced := ref.cpuNs() / float64(ref.events)
	set("trace.overhead_pct", 100*(m.cpuNs()/ev-untraced)/untraced)
	// The timing of the untraced reference section.
	for _, t := range Timing {
		set("run."+t.Name, res.Quiet[t.Name].Value)
		set("run.whole."+t.Name, res.Whole[t.Name].Value)
	}
	res.Layers = out

	path, err := tr.write(opt.ResultsDir, opt.Workload)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.TracePath = path
	return nil
}

func report(w io.Writer, res *Result) {
	for _, e := range EndToEnd {
		fmt.Fprintf(w, "  %-22s %14.4f %s\n", e.Name, res.EndToEnd[e.Name].Value, e.Unit)
	}
	fmt.Fprintf(w, "  %-22s %14.6f ratio   (ops %d, failed %d; %d lag samples, %d call samples)\n",
		"failed_share", res.FailedShare, res.Attempted, res.Failed, res.LagSamples, res.CallSamples)
	for _, t := range Timing {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", "run."+t.Name, res.Quiet[t.Name].Value, t.Unit)
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", "run.whole."+t.Name, res.Whole[t.Name].Value, t.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	if res.Layers == nil {
		return
	}
	names := make([]string, 0, len(res.Layers))
	for name := range res.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.HasPrefix(name, "run.") {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, res.Layers[name].Value, res.Layers[name].Unit)
		}
	}
	fmt.Fprintf(w, "  trace spans: %s\n", res.TracePath)
}
