package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/host"
	"scrub/internal/stats"
	"scrub/internal/transport"
	"scrub/internal/workload"
)

// P1Config parametrizes the host-overhead measurement (paper §9 /
// abstract: "a maximum CPU overhead of up to 2.5% on application hosts").
// A fixed bidding workload runs with increasing numbers of concurrent
// Scrub queries; the per-request processing cost is compared with the
// zero-query baseline.
type P1Config struct {
	Requests   int   `json:"requests"`    // requests per measurement; default 30000
	LineItems  int   `json:"line_items"`  // default 150
	QuerySweep []int `json:"query_sweep"` // concurrent query counts; default {0,1,2,4,8,16,32}
	// Reps is how many times each sweep point is measured; the reported
	// ns/request is the median. Single-shot timing of a ~10µs request is
	// noisy enough to invert adjacent sweep points (a historical sweep
	// had 8 queries measuring cheaper than 4); the median of
	// ≥3 reps makes the trajectory trustworthy. Default 3.
	Reps int   `json:"reps"`
	Seed int64 `json:"seed"`
	// ReferenceRequestNs is the production request budget the paper's
	// percentages are relative to: Turn's whole bid transaction completes
	// "in under 20 milliseconds" (§7). The simulator's request costs ~10µs
	// (no ML scoring, no real network), which inflates relative overhead
	// ~1000×; the absolute added ns/request is the transferable number.
	// Default 10ms.
	ReferenceRequestNs float64 `json:"reference_request_ns"`
}

func (c *P1Config) fillDefaults() {
	if c.Requests == 0 {
		c.Requests = 30000
	}
	if c.LineItems == 0 {
		c.LineItems = 150
	}
	if len(c.QuerySweep) == 0 {
		c.QuerySweep = []int{0, 1, 2, 4, 8, 16, 32}
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Seed == 0 {
		c.Seed = 9101
	}
	if c.ReferenceRequestNs == 0 {
		c.ReferenceRequestNs = 10e6 // 10ms
	}
}

// P1Point is one sweep measurement.
type P1Point struct {
	Queries     int     `json:"queries"`
	NsPerReq    float64 `json:"ns_per_request"`
	AddedNs     float64 `json:"added_ns"`      // absolute Scrub cost per request vs baseline
	OverheadPct float64 `json:"overhead_pct"`  // vs the (simulated) 0-query baseline
	// SLOPct is AddedNs relative to the production request budget —
	// the number comparable with the paper's ≤2.5%.
	SLOPct float64 `json:"slo_pct"`
}

// P1Result carries the sweep.
type P1Result struct {
	Config P1Config  `json:"config"`
	Points []P1Point `json:"points"`
}

// queryTemplates are the shapes troubleshooters run concurrently; the
// sweep cycles through them.
var queryTemplates = []string{
	`select bid.user_id, count(*) from bid group by bid.user_id window 10s duration 1h`,
	`select count(*) from bid where bid.bid_price > 1.5 window 10s duration 1h`,
	`select avg(bid.bid_price) from bid where bid.exchange_id = 1 window 10s duration 1h`,
	`select bid.exchange_id, count(*) from bid group by bid.exchange_id window 10s duration 1h`,
	`select count_distinct(bid.user_id) from bid window 10s duration 1h`,
	`select max(bid.bid_price), min(bid.bid_price) from bid window 10s duration 1h`,
	`select count(*) from bid where bid.country = "US" window 10s duration 1h`,
	`select top_k(bid.user_id, 10) from bid window 10s duration 1h`,
}

// measureWorkload runs the traffic once and returns ns/request.
func measureWorkload(platform *adplatform.Platform, gen *workload.Generator, duration time.Duration) float64 {
	n := 0
	start := time.Now()
	gen.Run(duration, func(r adplatform.BidRequest) {
		platform.Process(r)
		n++
	})
	elapsed := time.Since(start)
	if n == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / float64(n)
}

func newOverheadPlatform(cfg P1Config) (*adplatform.Platform, error) {
	// The sink serializes every batch (the real wire cost stays on the
	// host) and discards it: ScrubCentral is a dedicated remote facility
	// in the paper's deployment, so its CPU must not be charged to the
	// application host under measurement. Encode buffers are pooled
	// (several agents share this sink) so the sink itself adds no
	// steady-state allocation to the measured path.
	encPool := sync.Pool{New: func() any { return new([]byte) }}
	shipAndDiscard := host.SinkFunc(func(b transport.TupleBatch) error {
		bp := encPool.Get().(*[]byte)
		out, err := transport.AppendEncode((*bp)[:0], b)
		*bp = out[:0]
		encPool.Put(bp)
		return err
	})
	return adplatform.New(adplatform.Config{
		NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
		LineItems: adplatform.GenerateLineItems(cfg.LineItems, cfg.Seed),
		Agent:     host.Config{FlushInterval: 20 * time.Millisecond, QueueSize: 1 << 16},
		AgentSink: shipAndDiscard,
	})
}

func overheadTraffic(cfg P1Config, start time.Time) (*workload.Generator, time.Duration, error) {
	// Enough virtual time that the request budget is exhausted first.
	gen, err := workload.NewGenerator(workload.Spec{
		Seed: cfg.Seed, NumUsers: 1000, MeanPageViewsPerMin: 6,
	}, start)
	if err != nil {
		return nil, 0, err
	}
	// ~1000 users × 6 views/min × 2 slots = 12000 req/min virtual.
	mins := float64(cfg.Requests) / 12000
	return gen, time.Duration(mins * float64(time.Minute)), nil
}

// overheadMeasureOnce builds a fresh platform, installs the given
// queries, runs a warm-up pass, measures one timed pass, and tears
// everything down. It is the single-measurement primitive both the P1
// and PS sweeps repeat and take medians over.
func overheadMeasureOnce(cfg P1Config, queries []string) (float64, error) {
	platform, err := newOverheadPlatform(cfg)
	if err != nil {
		return 0, err
	}
	defer platform.Close()
	gen, dur, err := overheadTraffic(cfg, virtualStart())
	if err != nil {
		return 0, err
	}
	gen.InstallProfiles(platform.Store)
	ids := make([]uint64, 0, len(queries))
	for _, src := range queries {
		st, err := platform.Cluster.Query(src)
		if err != nil {
			return 0, err
		}
		go func() { // drain
			for range st.Windows {
			}
		}()
		ids = append(ids, st.Info.ID)
	}
	// Warm-up pass (fills caches, steadies the allocator), then the
	// measured pass over fresh traffic.
	warm, warmDur, err := overheadTraffic(P1Config{Requests: cfg.Requests / 4, Seed: cfg.Seed + 1}, virtualStart())
	if err != nil {
		return 0, err
	}
	measureWorkload(platform, warm, warmDur)
	nsPerReq := measureWorkload(platform, gen, dur)
	for _, id := range ids {
		_ = platform.Cluster.Cancel(id)
	}
	return nsPerReq, nil
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// P1HostOverhead runs the sweep, measuring every point Reps times and
// reporting the median.
func P1HostOverhead(cfg P1Config) (*P1Result, error) {
	cfg.fillDefaults()
	res := &P1Result{Config: cfg}
	var baseline float64
	for _, nq := range cfg.QuerySweep {
		queries := make([]string, nq)
		for q := 0; q < nq; q++ {
			queries[q] = queryTemplates[q%len(queryTemplates)]
		}
		samples := make([]float64, 0, cfg.Reps)
		for rep := 0; rep < cfg.Reps; rep++ {
			ns, err := overheadMeasureOnce(cfg, queries)
			if err != nil {
				return nil, err
			}
			samples = append(samples, ns)
		}
		nsPerReq := median(samples)

		p := P1Point{Queries: nq, NsPerReq: nsPerReq}
		if nq == 0 {
			baseline = nsPerReq
		}
		if baseline > 0 {
			p.AddedNs = nsPerReq - baseline
			p.OverheadPct = p.AddedNs / baseline * 100
			p.SLOPct = p.AddedNs / cfg.ReferenceRequestNs * 100
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Table renders the sweep.
func (r *P1Result) Table() *Table {
	t := &Table{
		ID:      "P1",
		Title:   "Host overhead vs concurrent queries (§9/abstract)",
		Columns: []string{"active queries", "ns/request", "added ns", "vs simulated request", "vs production request budget"},
	}
	for _, p := range r.Points {
		t.AddRow(fmtI(int64(p.Queries)), fmtF(p.NsPerReq), fmtF(p.AddedNs),
			fmt.Sprintf("%+.1f%%", p.OverheadPct), fmt.Sprintf("%+.3f%%", p.SLOPct))
	}
	t.Notes = append(t.Notes,
		"paper: at most ~2.5% max CPU overhead on application hosts under query load",
		fmt.Sprintf("the last column divides the absolute added cost by a %.0fms production request budget (§7: the bid transaction completes in under 20ms); the simulator's request itself costs only ~10µs, which is why the simulated-relative column runs far higher", r.Config.ReferenceRequestNs/1e6),
		"the Log hot path is selection+projection+enqueue only; joins/aggregation never run here")
	return t
}

// P2Config parametrizes the request-latency comparison (paper §9 /
// abstract: "a 1% increase in request latency").
type P2Config struct {
	Requests int // default 20000
	Queries  int // concurrent queries when "on"; default 4
	Seed     int64
}

func (c *P2Config) fillDefaults() {
	if c.Requests == 0 {
		c.Requests = 20000
	}
	if c.Queries == 0 {
		c.Queries = 4
	}
	if c.Seed == 0 {
		c.Seed = 9202
	}
}

// P2Side is one latency distribution.
type P2Side struct {
	Label         string
	P50, P95, P99 float64 // microseconds
	Mean          float64
}

// P2Result compares Scrub off vs on.
type P2Result struct {
	Config  P2Config
	Off, On P2Side
	// MeanDeltaPct is the mean-latency increase with Scrub on, relative
	// to the simulated request (which costs ~10µs, vs the paper's
	// multi-millisecond production transaction).
	MeanDeltaPct float64
	// MeanDeltaUs is the absolute added latency in microseconds — the
	// transferable number.
	MeanDeltaUs float64
	// SLOPct relates the absolute delta to a 10ms production request
	// budget, comparable with the paper's ~1%.
	SLOPct float64
}

// P2RequestLatency runs the comparison.
func P2RequestLatency(cfg P2Config) (*P2Result, error) {
	cfg.fillDefaults()
	measure := func(queries int) (P2Side, error) {
		platform, err := newOverheadPlatform(P1Config{LineItems: 150, Seed: cfg.Seed})
		if err != nil {
			return P2Side{}, err
		}
		defer platform.Close()
		gen, dur, err := overheadTraffic(P1Config{Requests: cfg.Requests, Seed: cfg.Seed}, virtualStart())
		if err != nil {
			return P2Side{}, err
		}
		gen.InstallProfiles(platform.Store)
		for q := 0; q < queries; q++ {
			st, err := platform.Cluster.Query(queryTemplates[q%len(queryTemplates)])
			if err != nil {
				return P2Side{}, err
			}
			go func() {
				for range st.Windows {
				}
			}()
		}
		// Warm-up pass before the timed pass, so the off/on measurements
		// are equally warm.
		warm, warmDur, err := overheadTraffic(P1Config{Requests: cfg.Requests / 4, Seed: cfg.Seed + 1}, virtualStart())
		if err != nil {
			return P2Side{}, err
		}
		measureWorkload(platform, warm, warmDur)
		lat := make([]float64, 0, cfg.Requests)
		gen.Run(dur, func(r adplatform.BidRequest) {
			t0 := time.Now()
			platform.Process(r)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1000)
		})
		var m stats.Running
		for _, x := range lat {
			m.Add(x)
		}
		return P2Side{
			P50: stats.Percentile(lat, 50), P95: stats.Percentile(lat, 95),
			P99: stats.Percentile(lat, 99), Mean: m.Mean(),
		}, nil
	}
	off, err := measure(0)
	if err != nil {
		return nil, err
	}
	on, err := measure(cfg.Queries)
	if err != nil {
		return nil, err
	}
	off.Label, on.Label = "Scrub off", fmt.Sprintf("Scrub on (%d queries)", cfg.Queries)
	res := &P2Result{Config: cfg, Off: off, On: on}
	res.MeanDeltaUs = on.Mean - off.Mean
	if off.Mean > 0 {
		res.MeanDeltaPct = res.MeanDeltaUs / off.Mean * 100
	}
	res.SLOPct = res.MeanDeltaUs * 1000 / 10e6 * 100 // vs 10ms budget
	return res, nil
}

// Table renders the comparison.
func (r *P2Result) Table() *Table {
	t := &Table{
		ID:      "P2",
		Title:   "Bid-request latency with Scrub off vs on (§9/abstract)",
		Columns: []string{"configuration", "mean (µs)", "p50 (µs)", "p95 (µs)", "p99 (µs)"},
	}
	for _, s := range []P2Side{r.Off, r.On} {
		t.AddRow(s.Label, fmtF(s.Mean), fmtF(s.P50), fmtF(s.P95), fmtF(s.P99))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean latency delta: %+.2fµs absolute (%+.1f%% of the ~10µs simulated request; %+.3f%% of a 10ms production request budget)",
			r.MeanDeltaUs, r.MeanDeltaPct, r.SLOPct),
		"paper: ~1% request-latency increase; Log never blocks (bounded queue, drop on overflow)")
	return t
}
