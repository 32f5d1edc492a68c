package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"time"

	"scrub/internal/agg"
	"scrub/internal/central"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/host"
	"scrub/internal/oracle"
	"scrub/internal/ql"
	"scrub/internal/sketch"
	"scrub/internal/transport"
)

// Run modes. Exact runs must match the oracle row-for-row with zero late
// drops; sampled and host-sampled runs are checked for agreement across
// shard counts plus confidence-interval coverage; chaos runs (host death,
// duplicated batches, late redelivery) for that agreement only — bit for
// bit on results AND on degradation accounting.
const (
	modeExact = iota
	modeSampled
	modeHostSample
	modeChaos
	numModes
)

func modeName(m int) string {
	return [...]string{"exact", "sampled", "hostsample", "chaos"}[m]
}

// Config fully determines one simulation. deriveConfig maps a bare seed
// onto the coverage grid so a contiguous seed sweep visits every
// (family × shards × mode) combination every 96 seeds. That mapping is
// frozen (ROADMAP.md, standing gates); what a seed derives beyond its
// config — batch boundaries, interleaving — is not, so a pinned seed pins
// a configuration.
type Config struct {
	Seed   int64
	Family int
	Shards int
	Mode   int
	// DefaultLateness draws a window shorter than 2 s and leaves Lateness
	// unset; otherwise every slide is 2 s or more and Lateness is 2 s.
	DefaultLateness bool
}

var shardCounts = []int{1, 2, 4, 8}

func deriveConfig(seed int64) Config {
	s := seed
	if s < 0 {
		s = -s
	}
	return Config{
		Seed:   seed,
		Family: int(s % numFamilies),
		Shards: shardCounts[(s/numFamilies)%int64(len(shardCounts))],
		Mode:   int((s / (numFamilies * int64(len(shardCounts)))) % numModes),
	}
}

// ReplayCommand is printed with every failure: running it reproduces the
// exact simulation (query, streams, interleaving, chaos) from the seed.
func (c Config) ReplayCommand() string {
	test := "TestDifferentialSweep"
	if c.DefaultLateness {
		test = "TestDefaultLatenessSweep"
	}
	return fmt.Sprintf("go test ./internal/difftest -run '%s' -difftest.seed=%d -v", test, c.Seed)
}

func (c Config) String() string {
	return fmt.Sprintf("seed=%d family=%s shards=%d mode=%s",
		c.Seed, famName(c.Family), c.Shards, modeName(c.Mode))
}

// Outcome carries per-sim accounting the sweep aggregates (CI coverage
// is a statistical contract checked across the whole sweep, not per run).
type Outcome struct {
	Query      string
	Windows    int
	CovChecked int // sampled-mode (estimate, bound) pairs examined
	CovHit     int // ... of which contained the oracle's exact truth
}

// agentConfig is the agent every simulated host runs: explicit Flush only
// (the hour never elapses) on a clock that never moves, so no heartbeat,
// governor tick or span expiry fires on its own and what ships, and with
// which counters, is decided by the harness's Flush calls alone.
func agentConfig(hostID string, cat *event.Catalog, sink host.Sink) host.Config {
	return host.Config{
		HostID: hostID, Service: "BidServers", DC: "DC1",
		Catalog: cat, Sink: sink,
		FlushInterval: time.Hour,
		Clock:         func() time.Time { return time.Unix(0, 0) },
	}
}

// streamKey names one agent stream: a query's object for one event type
// on one host.
type streamKey struct {
	query   uint64
	host    string
	typeIdx uint8
}

func keyOf(b *transport.TupleBatch) streamKey { return streamKey{b.QueryID, b.HostID, b.TypeIdx} }

// capture is the agents' Sink: a copy of every batch they ship — the
// agent recycles batch memory once SendBatch returns — per stream, in
// order. Run's agents record no history to replay, so they ship only
// inside Flush (see agentConfig) and Run reads it between Flush calls
// without a lock.
type capture map[streamKey][]transport.TupleBatch

func (c capture) SendBatch(b transport.TupleBatch) error {
	k := keyOf(&b)
	c[k] = append(c[k], transport.CloneBatch(b))
	return nil
}

// firstTuple returns the index of the first batch carrying a tuple, -1
// when every batch is a counter-only heartbeat.
func firstTuple(bs []transport.TupleBatch) int {
	for i := range bs {
		if len(bs[i].Tuples) > 0 {
			return i
		}
	}
	return -1
}

type collector struct {
	name string
	wins []transport.ResultWindow
}

func (c *collector) emit(rw transport.ResultWindow) {
	if debugTrace {
		fmt.Printf("  emit[%s] #%d [%d,%d) rows=%d stats=%+v\n",
			c.name, len(c.wins), rw.WindowStart, rw.WindowEnd, len(rw.Rows), rw.Stats)
	}
	c.wins = append(c.wins, rw)
}

// debugTrace dumps per-delivery and per-emission details while replaying
// a seed (DIFFTEST_DEBUG=1); it exists for harness archaeology only.
var debugTrace = os.Getenv("DIFFTEST_DEBUG") != ""

// Run executes one seeded simulation and checks every applicable
// contract. A non-nil error is a contract violation (or a harness bug);
// the caller attaches the replay command.
func Run(cfg Config) (*Outcome, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	shapes := windowShapes
	if cfg.DefaultLateness {
		shapes = shortWindowShapes
	}
	src := genQuery(rng, cfg.Family, shapes)
	out := &Outcome{Query: src}
	cat := catalog()
	qp, err := analyze(src, cat)
	if err != nil {
		return out, err
	}

	hosts := 2 + rng.Intn(3)
	totalHosts, sampledHosts := hosts, hosts
	if cfg.Mode == modeHostSample {
		sampledHosts = 1 + rng.Intn(hosts-1)
	}
	if cfg.Mode == modeSampled {
		qp.SampleEvents = []float64{0.5, 0.25}[rng.Intn(2)]
	}
	// The query id comes from the seed, so the agents' (query, host)-seeded
	// samplers draw differently on every seed; each seed owns a block of
	// eight ids, the query under test first and its decoys after it.
	qid := 8*uint64(cfg.Seed) + 1
	plan := central.FromPlan(qp, qid, 0, 0, totalHosts, sampledHosts)
	// slack is how far behind the slowest stream a window closes; the
	// generator keeps each stream's disorder under half of it.
	slack := 2 * time.Second
	if cfg.DefaultLateness {
		slack = min(plan.Slide, slack)
	} else {
		plan.Lateness = slack
	}

	shipping := make(map[string]bool, hosts)
	hostNames := make([]string, hosts)
	for h := 0; h < hosts; h++ {
		hostNames[h] = fmt.Sprintf("host-%d", h)
		shipping[hostNames[h]] = true
	}
	events := genEvents(rng, cat, cfg.Family, hostNames, slack)
	if cfg.Mode == modeHostSample {
		perm := rng.Perm(hosts)
		for h := range shipping {
			shipping[h] = false
		}
		for _, i := range perm[:sampledHosts] {
			shipping[hostNames[i]] = true
		}
	}

	// --- host half: every event through its host's agent ---

	// Beside the query under test every agent runs 0–4 decoys, drawn from a
	// source of their own so the seed's query and streams do not move with
	// them: they put shared dispatch, projection groups, span gating (half
	// carry a span), the solo path and the schema scan under the sweep.
	// Their batches are captured and accounted for, never delivered.
	drng := rand.New(rand.NewSource(^cfg.Seed))
	var decoys []transport.HostQuery
	for i, n := 0, drng.Intn(5); i < n; i++ {
		dp, err := analyze(genQuery(drng, drng.Intn(numFamilies), windowShapes), cat)
		if err != nil {
			return out, err
		}
		var start, end int64
		if drng.Intn(2) == 0 {
			start = drng.Int63n(int64(30 * time.Second))
			end = start + 1 + drng.Int63n(int64(60*time.Second))
		}
		decoys = append(decoys, dp.HostQueries(qid+1+uint64(i), start, end)...)
	}
	sink := capture{}
	agents := make(map[string]*host.Agent, hosts)
	for _, name := range hostNames {
		a, err := host.New(agentConfig(name, cat, sink))
		if err != nil {
			return out, err
		}
		defer a.Close()
		hqs := decoys
		if shipping[name] {
			hqs = append(qp.HostQueries(qid, 0, 0), decoys...)
		}
		for _, hq := range hqs {
			if err := a.Start(hq); err != nil {
				return out, fmt.Errorf("%s: %v\n  query: %s", name, err, src)
			}
		}
		agents[name] = a
	}

	// The compiled closure is the reference selection: it decides the
	// oracle's population, and what the agents must have matched.
	hostPreds := make([]func(expr.Row) bool, len(plan.Types))
	for i, typ := range plan.Types {
		if n := qp.HostPred[typ]; n != nil {
			ev, cerr := expr.Compile(n)
			if cerr != nil {
				return out, fmt.Errorf("host predicate compile: %v", cerr)
			}
			hostPreds[i] = expr.Predicate(ev)
		}
	}
	var oracleEvents []oracle.Event
	// The streams under test, by host and type, and the closure's selection
	// on each.
	var streamKeys []streamKey
	want := make(map[streamKey][]transport.Tuple)
	for _, h := range hostNames {
		for t := 0; t < len(plan.Types) && shipping[h]; t++ {
			streamKeys = append(streamKeys, streamKey{qid, h, uint8(t)})
			want[streamKey{qid, h, uint8(t)}] = nil
		}
	}
	// Each agent is flushed after a seed-drawn run of 4–9 of its own events
	// — fewer than a chunk holds, so every batch ships inside Flush with
	// deterministic counters and no chunk is ever dropped — and after any
	// event of a stream that has not shipped a tuple yet, so that a stream's
	// first tuple ships alone (see the registration pass below).
	runLeft := make(map[string]int, hosts)
	for _, h := range hostNames {
		runLeft[h] = 4 + rng.Intn(6)
	}
	registered := make(map[streamKey]bool)
	for _, e := range events {
		agents[e.host].Log(e.Event)
		k := streamKey{qid, e.host, uint8(e.typeIdx)}
		_, tested := want[k]
		if e.typeIdx < len(plan.Types) && (hostPreds[e.typeIdx] == nil || hostPreds[e.typeIdx](expr.EventRow{Event: e.Event})) {
			var vals []event.Value
			for _, c := range plan.Columns[e.typeIdx] {
				vals = append(vals, e.Get(c))
			}
			// The oracle sees the full matched population from every host —
			// no sampling, no host subsetting: it is the ground truth the
			// sampled estimates are judged against.
			oracleEvents = append(oracleEvents, oracle.Event{
				Host: e.host, TypeIdx: e.typeIdx, RequestID: e.RequestID, TsNanos: e.TimeNanos, Values: vals,
			})
			if tested {
				want[k] = append(want[k], transport.Tuple{RequestID: e.RequestID, TsNanos: e.TimeNanos, Values: vals})
			}
		}
		fresh := tested && !registered[k]
		if runLeft[e.host]--; runLeft[e.host] > 0 && !fresh {
			continue
		}
		if runLeft[e.host] == 0 {
			runLeft[e.host] = 4 + rng.Intn(6)
		}
		agents[e.host].Flush()
		if fresh {
			registered[k] = firstTuple(sink[k]) >= 0
		}
	}
	for _, h := range hostNames {
		agents[h].Flush()
	}
	if err := checkAgents(sink, qid, qp.SampleEvents, want); err != nil {
		return out, fmt.Errorf("%v\n  query: %s", err, src)
	}

	// --- interleave per-stream batch queues into one delivery order ---

	idx := make(map[streamKey]int, len(streamKeys))
	batchMaxTs := func(b transport.TupleBatch) int64 {
		var m int64
		for _, t := range b.Tuples {
			if t.TsNanos > m {
				m = t.TsNanos
			}
		}
		return m
	}
	// Registration pass: every stream's first tuple batch (a single tuple)
	// is delivered up front, with the counter-only heartbeats ahead of it,
	// in ascending event-time order. The engines' watermark is a minimum
	// over streams that have shipped at least one tuple — a stream is
	// invisible until then — so a stream whose first tuple arrived after
	// others had advanced would find its early windows already closed: a
	// harness artifact, not an engine bug. Registering everyone first keeps
	// the watermark a true minimum over all streams for the remainder of the
	// run, and the ascending order means no first tuple can itself be behind
	// the watermark the earlier ones establish. A heartbeat sorts at time 0,
	// so the stable sort keeps each stream's batches in shipping order.
	var deliveries []transport.TupleBatch
	for _, k := range streamKeys {
		if f := firstTuple(sink[k]); f >= 0 {
			deliveries = append(deliveries, sink[k][:f+1]...)
			idx[k] = f + 1
		}
	}
	// The tick watermark is valid only once EVERY stream that will ever
	// ship a tuple has reported: a minimum over a prefix of the streams
	// runs ahead of the true watermark, and ticking with it would
	// force-close windows that laggard streams still have events for —
	// manufacturing late drops the contracts forbid.
	expectedStreams := len(idx)
	sort.SliceStable(deliveries, func(i, j int) bool {
		return batchMaxTs(deliveries[i]) < batchMaxTs(deliveries[j])
	})
	for {
		var best streamKey
		bestTs := int64(math.MaxInt64)
		var nonEmpty []streamKey
		for _, k := range streamKeys {
			if idx[k] >= len(sink[k]) {
				continue
			}
			nonEmpty = append(nonEmpty, k)
			if ts := batchMaxTs(sink[k][idx[k]]); ts < bestTs {
				best, bestTs = k, ts
			}
		}
		if len(nonEmpty) == 0 {
			break
		}
		// Mostly time order; sometimes an arbitrary ready stream, which
		// models network skew but stays within the lateness bound because
		// each stream is individually near-sorted.
		if len(nonEmpty) > 1 && rng.Intn(4) == 0 {
			best = nonEmpty[rng.Intn(len(nonEmpty))]
		}
		deliveries = append(deliveries, sink[best][idx[best]])
		idx[best]++
	}

	// --- chaos: host death, duplicated batches, late redelivery ---

	var deadHost string
	if cfg.Mode == modeChaos && len(deliveries) > 4 {
		deadHost = hostNames[rng.Intn(hosts)]
		var victimTotal, victimSeen int
		for _, b := range deliveries {
			if b.HostID == deadHost {
				victimTotal++
			}
		}
		cut := victimTotal * 3 / 5
		var alive, late []transport.TupleBatch
		for _, b := range deliveries {
			if b.HostID == deadHost {
				victimSeen++
				if victimSeen > cut {
					continue // host died: remaining batches are lost
				}
			}
			switch rng.Intn(20) {
			case 0:
				late = append(late, b) // delayed far beyond lateness
			case 1:
				alive = append(alive, b, b) // duplicated delivery
			default:
				alive = append(alive, b)
			}
		}
		deliveries = append(alive, late...)
	}

	// --- drive both engines over the identical delivery sequence: eng is the
	// cluster of one, sh the same executor at cfg.Shards (at Shards == 1 the
	// same arm twice: it costs nothing, and no seed's config is redrawn) ---
	ttl := time.Hour
	if cfg.Mode == modeChaos {
		ttl = 2 * time.Second
	}
	// vcNanos is the harness-controlled wall clock every arm reads; the
	// harness is single-threaded, so a plain variable suffices.
	var vcNanos int64
	opts := central.Options{Clock: func() time.Time { return time.Unix(0, vcNanos) }, LeaseTTL: ttl}
	eng := central.NewEngineWith(opts)
	sh, err := central.NewShardedEngineWith(cfg.Shards, opts)
	if err != nil {
		return out, err
	}
	cEng, cSh := collector{name: "eng"}, collector{name: "shard"}
	if err := eng.StartQuery(plan, cEng.emit); err != nil {
		return out, err
	}
	if err := sh.StartQuery(plan, cSh.emit); err != nil {
		return out, err
	}

	// Third executor: the same streams through a real multi-process
	// topology — coordinator, shard nodes and a host-side router over the
	// pipe transport, every hop through the wire codec. The process count
	// maps the in-process shard axis onto the fabric sizes the acceptance
	// gate pins (N ∈ {2,4}).
	procs := 2
	if cfg.Shards >= 4 {
		procs = 4
	}
	topo := newPipeTopology(coord.NewCoordinator(opts), procs, catalog)
	defer topo.close()
	planMP := plan
	planMP.Text = src
	cMP := collector{name: "multi"}
	if err := topo.start(planMP, cMP.emit); err != nil {
		return out, err
	}

	// Fourth executor: the same fabric under a replicating leader the
	// harness kills halfway through the delivery sequence. The standby
	// promotes under a higher fencing term and finishes the query against
	// the surviving shard nodes.
	fo := newFailoverTopology(procs, opts, catalog)
	defer fo.close()
	planFO := plan
	planFO.Text = src
	cFO := collector{name: "failover"}
	if err := fo.start(planFO, cFO.emit); err != nil {
		return out, err
	}
	killAt := -1
	if len(deliveries) >= 4 {
		killAt = len(deliveries) / 2
	}
	foPre := -1 // leader-emitted window count at the kill; -1 = never killed
	tick := func(now int64) {
		eng.Tick(now)
		sh.Tick(now)
		topo.coord.Tick(now)
		fo.coord.Tick(now)
	}

	streamMax := make(map[streamKey]int64)
	watermark := func() (int64, bool) {
		if len(streamMax) < expectedStreams {
			return 0, false
		}
		var wm int64 = math.MaxInt64
		for _, ts := range streamMax {
			if ts < wm {
				wm = ts
			}
		}
		return wm, len(streamMax) > 0
	}
	for i, b := range deliveries {
		if debugTrace {
			var mn, mx int64 = math.MaxInt64, 0
			for _, t := range b.Tuples {
				mn, mx = min(mn, t.TsNanos), max(mx, t.TsNanos)
			}
			fmt.Printf("deliver %d: %s/%d n=%d ts=[%.2fs,%.2fs]\n",
				i, b.HostID, b.TypeIdx, len(b.Tuples), float64(mn)/1e9, float64(mx)/1e9)
		}
		if mts := batchMaxTs(b); mts > 0 {
			vcNanos = max(vcNanos, mts)
			k := keyOf(&b)
			if mts > streamMax[k] {
				streamMax[k] = mts
			}
		}
		if i == killAt {
			foPre = len(cFO.wins)
			if debugTrace {
				fmt.Printf("failover: killing leader before delivery %d (%d windows emitted)\n", i, foPre)
			}
			if err := fo.failover(); err != nil {
				return out, err
			}
		}
		eng.HandleBatch(transport.CloneBatch(b))
		sh.HandleBatch(transport.CloneBatch(b))
		if err := topo.router.SendBatch(transport.CloneBatch(b)); err != nil {
			return out, fmt.Errorf("multiproc routing: %v", err)
		}
		if err := fo.router.SendBatch(transport.CloneBatch(b)); err != nil {
			return out, fmt.Errorf("failover routing: %v", err)
		}
		if i%7 == 6 {
			// Exact modes tick at the harness-tracked watermark — never
			// ahead of what event time has justified, so ticking cannot
			// manufacture late drops. Chaos ticks at full wall speed.
			now := vcNanos
			if cfg.Mode != modeChaos {
				wm, ok := watermark()
				if !ok {
					continue
				}
				now = wm
			}
			tick(now)
		}
	}
	if cfg.Mode == modeChaos {
		// Let the dead host's lease expire and tick the eviction through.
		vcNanos += int64(ttl) + int64(5*time.Second)
		tick(vcNanos)
		tick(vcNanos)
	}
	engStats, _ := eng.StopQuery(plan.QueryID)
	shStats, _ := sh.StopQuery(plan.QueryID)
	mpStats, _ := topo.coord.StopQuery(plan.QueryID)
	foStats, foOK := fo.coord.StopQuery(plan.QueryID)
	if !foOK {
		return out, fmt.Errorf("failover topology lost query %d at StopQuery\n  query: %s", plan.QueryID, src)
	}

	ew, sw := cEng.wins, cSh.wins
	out.Windows = len(ew)

	// --- contract D: shard-count invariance, cluster of one v cfg.Shards ---

	if err := compareWindowLists(ew, sw, cfg.Shards); err != nil {
		return out, fmt.Errorf("cross-engine divergence (Engine vs %d-shard): %v\n  query: %s", cfg.Shards, err, src)
	}
	if engStats != shStats {
		return out, fmt.Errorf("cross-engine stats divergence (Engine vs %d-shard): %+v vs %+v\n  query: %s", cfg.Shards, engStats, shStats, src)
	}

	// --- contract D': the multi-process topology agrees too ---

	if err := compareWindowLists(ew, cMP.wins, procs); err != nil {
		return out, fmt.Errorf("cross-engine divergence (Engine vs %d-process topology): %v\n  query: %s", procs, err, src)
	}
	if engStats != mpStats {
		return out, fmt.Errorf("cross-engine stats divergence (Engine vs %d-process topology): %+v vs %+v\n  query: %s", procs, engStats, mpStats, src)
	}

	// --- contract D'': the failover topology survives its leader kill ---

	if foPre < 0 {
		// Too few deliveries to kill mid-query: the leader ran the whole
		// sim and must be bit-identical like the other arms (replication
		// on, fencing at term 1 — neither may perturb results).
		if err := compareWindowLists(ew, cFO.wins, procs); err != nil {
			return out, fmt.Errorf("cross-engine divergence (Engine vs replicating leader): %v\n  query: %s", err, src)
		}
		if engStats != foStats {
			return out, fmt.Errorf("cross-engine stats divergence (Engine vs replicating leader): %+v vs %+v\n  query: %s", engStats, foStats, src)
		}
	} else if err := compareFailoverWindows(ew, cFO.wins, foPre, procs); err != nil {
		return out, fmt.Errorf("failover divergence (Engine vs promoted standby, %d-process): %v\n  query: %s", procs, err, src)
	}

	if cfg.Mode == modeChaos {
		return out, nil // no oracle contract under injected loss
	}

	// --- oracle contracts ---

	owins, err := oracle.Eval(plan, oracleEvents)
	if err != nil {
		return out, fmt.Errorf("oracle: %v\n  query: %s", err, src)
	}
	obyStart := make(map[int64]*oracle.Result, len(owins))
	for i := range owins {
		obyStart[owins[i].Start] = &owins[i]
	}

	switch cfg.Mode {
	case modeExact:
		if engStats.LateDrops != 0 {
			return out, fmt.Errorf("exact run dropped %d tuples as late — the harness guarantees none are\n  query: %s",
				engStats.LateDrops, src)
		}
		if len(ew) != len(owins) {
			return out, fmt.Errorf("window count: engine %d, oracle %d\n  query: %s", len(ew), len(owins), src)
		}
		for i := range ew {
			o := obyStart[ew[i].WindowStart]
			if o == nil || ew[i].WindowEnd != o.End {
				return out, fmt.Errorf("window %d span [%d,%d) has no oracle counterpart\n  query: %s",
					i, ew[i].WindowStart, ew[i].WindowEnd, src)
			}
			if err := compareToOracle(&plan, ew[i], o); err != nil {
				return out, fmt.Errorf("window [%d,%d): %v\n  query: %s", o.Start, o.End, err, src)
			}
		}
	case modeSampled, modeHostSample:
		// Contract B: Eq. 1–3 confidence intervals must contain the exact
		// truth at roughly the configured confidence. Individual misses
		// are expected; the sweep asserts the aggregate coverage rate.
		for i := range ew {
			o := obyStart[ew[i].WindowStart]
			if o == nil || len(o.AggExact) == 0 || len(ew[i].ErrBounds) == 0 || len(ew[i].Rows) != 1 {
				continue
			}
			for col, item := range plan.Select {
				ar, ok := item.Expr.(expr.AggRef)
				if !ok || !ar.Spec.Scalable() || col >= len(ew[i].ErrBounds) {
					continue
				}
				bound := ew[i].ErrBounds[col]
				truth := o.AggExact[ar.Index].Float
				est, fok := ew[i].Rows[0][col].AsFloat()
				if math.IsNaN(bound) || math.IsNaN(truth) || !fok {
					continue
				}
				out.CovChecked++
				if math.Abs(est-truth) <= bound+1e-9*math.Abs(truth) {
					out.CovHit++
				}
			}
		}
	}
	return out, nil
}

func analyze(src string, cat *event.Catalog) (*ql.Plan, error) {
	q, err := ql.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("generated query does not parse: %v\n  query: %s", err, src)
	}
	qp, err := ql.Analyze(q, cat)
	if err != nil {
		return nil, fmt.Errorf("generated query does not analyze: %v\n  query: %s", err, src)
	}
	return qp, nil
}

// checkAgents holds what the agents shipped to account for every tuple.
// Every stream, decoys' included, ends on a batch whose SampledTotal is
// the tuples it shipped plus its QueueDrops; the Flush cadence never lets
// a chunk fill, so QueueDrops is 0, and at rate 1 (decoys never sample)
// SampledTotal is MatchedTotal. For the query under test, want holds the
// closure's selection on every stream it was installed on: the agent must
// have matched exactly that many events and, at rate 1, shipped exactly
// those projections in Log order.
func checkAgents(sink capture, qid uint64, rate float64, want map[streamKey][]transport.Tuple) error {
	for k, bs := range sink {
		last := bs[len(bs)-1]
		var shipped uint64
		for _, b := range bs {
			shipped += uint64(len(b.Tuples))
		}
		if last.QueueDrops != 0 || last.SampledTotal != shipped+last.QueueDrops ||
			(k.query != qid || rate == 1) && last.SampledTotal != last.MatchedTotal {
			return fmt.Errorf("agent stream %+v: matched %d, sampled %d, shipped %d, queue drops %d",
				k, last.MatchedTotal, last.SampledTotal, shipped, last.QueueDrops)
		}
	}
	for k, ts := range want {
		var matched uint64
		var got []transport.Tuple
		for _, b := range sink[k] {
			matched = b.MatchedTotal
			got = append(got, b.Tuples...)
		}
		if matched != uint64(len(ts)) || rate == 1 && !reflect.DeepEqual(got, ts) {
			return fmt.Errorf("agent stream %+v matched %d events and shipped %v\n  the closure selected %d: %v",
				k, matched, got, len(ts), ts)
		}
	}
	return nil
}

// hllStdError mirrors the default-precision HLL relative standard error
// the engine's COUNT_DISTINCT uses.
var hllStdError = 1.04 / math.Sqrt(float64(int(1)<<sketch.DefaultHLLPrecision))

// distinctTolerance is the sketch-guarantee bound for COUNT_DISTINCT:
// 5 standard errors (the bound the sketch's own tests enforce), floored
// for tiny cardinalities where rounding dominates.
func distinctTolerance(truth float64) float64 {
	tol := 5 * hllStdError * truth
	if tol < 3 {
		tol = 3
	}
	return tol
}

// compareToOracle checks one engine window against the oracle row-for-row
// (contract A). COUNT_DISTINCT columns are held to the sketch guarantee
// instead of exact equality; every other column — including TOP_K, whose
// generated universes stay below SpaceSaving capacity — must match.
func compareToOracle(p *central.Plan, ew transport.ResultWindow, o *oracle.Result) error {
	if len(ew.Rows) != len(o.Rows) {
		return fmt.Errorf("row count: engine %d, oracle %d\n  engine: %v\n  oracle: %v",
			len(ew.Rows), len(o.Rows), ew.Rows, o.Rows)
	}
	for r := range ew.Rows {
		if len(ew.Rows[r]) != len(o.Rows[r]) {
			return fmt.Errorf("row %d width: engine %d, oracle %d", r, len(ew.Rows[r]), len(o.Rows[r]))
		}
		for c := range ew.Rows[r] {
			if ar, ok := p.Select[c].Expr.(expr.AggRef); ok && ar.Spec.Kind == agg.KindCountDistinct {
				est, eok := ew.Rows[r][c].AsFloat()
				truth, tok := o.Rows[r][c].AsFloat()
				if !eok || !tok {
					return fmt.Errorf("row %d col %d: non-numeric COUNT_DISTINCT (engine %v, oracle %v)",
						r, c, ew.Rows[r][c], o.Rows[r][c])
				}
				if math.Abs(est-truth) > distinctTolerance(truth) {
					return fmt.Errorf("row %d col %d: COUNT_DISTINCT %v vs exact %v exceeds sketch bound %.2f",
						r, c, est, truth, distinctTolerance(truth))
				}
				continue
			}
			if !valuesClose(ew.Rows[r][c], o.Rows[r][c]) {
				return fmt.Errorf("row %d col %d: engine %v, oracle %v\n  engine row: %v\n  oracle row: %v",
					r, c, ew.Rows[r][c], o.Rows[r][c], ew.Rows[r], o.Rows[r])
			}
		}
	}
	return nil
}

// valuesClose is exact for everything except float comparisons, which
// allow 1e-9 relative error (shard merges re-associate float additions).
func valuesClose(a, b event.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if la, ok := a.AsList(); ok {
		lb, ok := b.AsList()
		if !ok || len(la) != len(lb) {
			return false
		}
		for i := range la {
			if !valuesClose(la[i], lb[i]) {
				return false
			}
		}
		return true
	}
	fa, oka := a.AsFloat()
	fb, okb := b.AsFloat()
	if oka && okb {
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return math.IsNaN(fa) && math.IsNaN(fb)
		}
		return floatsClose(fa, fb)
	}
	return a.Equal(b)
}

func floatsClose(a, b float64) bool {
	if a == b {
		return true // exact match, including equal infinities (Inf-Inf is NaN)
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

// compareWindowLists enforces contract D field by field, including the
// degradation accounting a consumer acts on.
func compareWindowLists(ew, sw []transport.ResultWindow, shards int) error {
	if len(ew) != len(sw) {
		return fmt.Errorf("window count: %d vs %d", len(ew), len(sw))
	}
	for i := range ew {
		a, b := ew[i], sw[i]
		if a.WindowStart != b.WindowStart || a.WindowEnd != b.WindowEnd {
			return fmt.Errorf("window %d span: [%d,%d) vs [%d,%d)", i, a.WindowStart, a.WindowEnd, b.WindowStart, b.WindowEnd)
		}
		if len(a.Columns) != len(b.Columns) {
			return fmt.Errorf("window %d columns: %v vs %v", i, a.Columns, b.Columns)
		}
		if a.Approx != b.Approx || a.Degraded != b.Degraded || a.BudgetShed != b.BudgetShed {
			return fmt.Errorf("window %d flags: approx %v/%v degraded %v/%v shed %v/%v",
				i, a.Approx, b.Approx, a.Degraded, b.Degraded, a.BudgetShed, b.BudgetShed)
		}
		if len(a.Rows) != len(b.Rows) {
			return fmt.Errorf("window %d [%d,%d) rows: %d vs %d\n  engine: %v\n  sharded: %v",
				i, a.WindowStart, a.WindowEnd, len(a.Rows), len(b.Rows), a.Rows, b.Rows)
		}
		for r := range a.Rows {
			if len(a.Rows[r]) != len(b.Rows[r]) {
				return fmt.Errorf("window %d row %d width: %d vs %d", i, r, len(a.Rows[r]), len(b.Rows[r]))
			}
			for c := range a.Rows[r] {
				if !valuesClose(a.Rows[r][c], b.Rows[r][c]) {
					return fmt.Errorf("window %d [%d,%d) row %d col %d: %v vs %v",
						i, a.WindowStart, a.WindowEnd, r, c, a.Rows[r][c], b.Rows[r][c])
				}
			}
		}
		if len(a.ErrBounds) != len(b.ErrBounds) {
			return fmt.Errorf("window %d bounds len: %d vs %d", i, len(a.ErrBounds), len(b.ErrBounds))
		}
		for c := range a.ErrBounds {
			x, y := a.ErrBounds[c], b.ErrBounds[c]
			if math.IsNaN(x) != math.IsNaN(y) || (!math.IsNaN(x) && !floatsClose(x, y)) {
				return fmt.Errorf("window %d bound %d: %v vs %v", i, c, x, y)
			}
		}
		if a.Stats != b.Stats {
			return fmt.Errorf("window %d stats: %+v vs %+v", i, a.Stats, b.Stats)
		}
		if len(a.Streams) != len(b.Streams) {
			return fmt.Errorf("window %d streams: %d vs %d", i, len(a.Streams), len(b.Streams))
		}
		for s := range a.Streams {
			if a.Streams[s] != b.Streams[s] {
				return fmt.Errorf("window %d stream %d: %+v vs %+v", i, s, a.Streams[s], b.Streams[s])
			}
		}
	}
	return nil
}

// compareFailoverWindows enforces contract D'': windows the leader
// emitted before its kill are bit-identical to the Engine's prefix, and
// the promoted standby's windows afterwards are an ordered subsequence
// of the Engine's remaining spans, every one honestly flagged Degraded.
//
// Rows are deliberately not compared post-failover: the promoted
// coordinator rebuilds its watermark from post-kill manifests only, so a
// stream that went quiet before the kill no longer holds the minimum
// back — stragglers' tuples can drop late at the shards, and a window
// whose every tuple dropped that way never materializes at all. Spans
// can only come from partials of tuples the Engine also absorbed, so
// the subsequence relation (and the Degraded flag) is what takeover
// guarantees.
func compareFailoverWindows(ew, fw []transport.ResultWindow, pre, shards int) error {
	if pre > len(fw) || pre > len(ew) {
		return fmt.Errorf("pre-kill window count %d exceeds emitted (engine %d, failover %d)", pre, len(ew), len(fw))
	}
	if err := compareWindowLists(ew[:pre], fw[:pre], shards); err != nil {
		return fmt.Errorf("pre-kill prefix: %v", err)
	}
	j := pre
	for _, w := range fw[pre:] {
		if !w.Degraded {
			return fmt.Errorf("post-failover window [%d,%d) not flagged Degraded", w.WindowStart, w.WindowEnd)
		}
		for j < len(ew) && (ew[j].WindowStart != w.WindowStart || ew[j].WindowEnd != w.WindowEnd) {
			j++
		}
		if j == len(ew) {
			return fmt.Errorf("post-failover window [%d,%d) has no Engine counterpart in order", w.WindowStart, w.WindowEnd)
		}
		j++
	}
	return nil
}
