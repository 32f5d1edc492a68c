package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"scrub/internal/agg"
	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/expr"
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
// (family × shards × mode) combination every 96 seeds.
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

// vclock is the harness-controlled wall clock shared by both engines.
// The harness is single-threaded, so a plain field suffices.
type vclock struct{ nanos int64 }

func (v *vclock) now() time.Time { return time.Unix(0, v.nanos) }

// hostRow adapts a generated event for host-side predicate evaluation.
type hostRow struct {
	typ string
	e   *genEvent
}

func (r hostRow) Field(typ, name string) event.Value {
	if typ != "" && typ != r.typ {
		return event.Invalid
	}
	switch name {
	case event.FieldRequestID:
		return event.Int(int64(r.e.req))
	case event.FieldTimestamp:
		return event.TimeNanos(r.e.ts)
	}
	v, ok := r.e.fields[name]
	if !ok {
		return event.Invalid
	}
	return v
}

func (hostRow) Agg(int) event.Value { return event.Invalid }

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

	q, err := ql.Parse(src)
	if err != nil {
		return out, fmt.Errorf("generated query does not parse: %v\n  query: %s", err, src)
	}
	qp, err := ql.Analyze(q, catalog())
	if err != nil {
		return out, fmt.Errorf("generated query does not analyze: %v\n  query: %s", err, src)
	}

	hosts := 2 + rng.Intn(3)
	totalHosts, sampledHosts := hosts, hosts
	if cfg.Mode == modeHostSample {
		sampledHosts = 1 + rng.Intn(hosts-1)
	}
	plan := central.FromPlan(qp, 1, 0, 0, totalHosts, sampledHosts)
	// slack is how far behind the slowest stream a window closes; the
	// generator keeps each stream's disorder under half of it.
	slack := 2 * time.Second
	if cfg.DefaultLateness {
		slack = min(plan.Slide, slack)
	} else {
		plan.Lateness = slack
	}
	rate := 1.0
	if cfg.Mode == modeSampled {
		rate = []float64{0.5, 0.25}[rng.Intn(2)]
		plan.SampleEvents = rate
	}

	events := genEvents(rng, cfg.Family, hosts, slack)

	// --- host pipeline: selection, sampling, projection, batching ---

	// Every host predicate runs through both evaluators — the closure the
	// pipeline below filters with and the register program the agent
	// dispatches through (by name here: hostRow is not an EventRow) — and a
	// disagreement fails the seed.
	hostPreds := make([]func(expr.Row) bool, len(plan.Types))
	progIDs := make([]int32, len(plan.Types))
	pb := expr.NewProgramBuilder()
	for i, typ := range plan.Types {
		if n := qp.HostPred[typ]; n != nil {
			ev, cerr := expr.Compile(n)
			if cerr != nil {
				return out, fmt.Errorf("host predicate compile: %v", cerr)
			}
			hostPreds[i] = expr.Predicate(ev)
			if progIDs[i], cerr = pb.Intern(n); cerr != nil {
				return out, fmt.Errorf("host predicate intern: %v", cerr)
			}
		}
	}
	progCtx := pb.Build().NewCtx()

	shipping := make(map[string]bool, hosts)
	hostNames := make([]string, hosts)
	for h := 0; h < hosts; h++ {
		hostNames[h] = fmt.Sprintf("host-%d", h)
		shipping[hostNames[h]] = true
	}
	if cfg.Mode == modeHostSample {
		perm := rng.Perm(hosts)
		for h := range shipping {
			shipping[h] = false
		}
		for _, i := range perm[:sampledHosts] {
			shipping[hostNames[i]] = true
		}
	}

	type streamState struct {
		host             string
		typeIdx          int
		batches          []transport.TupleBatch
		pending          []transport.Tuple
		limit            int
		matched, shipped uint64
	}
	streams := make(map[string]*streamState)
	var streamKeys []string
	var oracleEvents []oracle.Event

	key := func(host string, typeIdx int) string { return fmt.Sprintf("%s/%d", host, typeIdx) }
	flush := func(s *streamState) {
		if len(s.pending) == 0 {
			return
		}
		s.batches = append(s.batches, transport.TupleBatch{
			QueryID:      plan.QueryID,
			HostID:       s.host,
			TypeIdx:      uint8(s.typeIdx),
			Tuples:       s.pending,
			MatchedTotal: s.matched,
			SampledTotal: s.shipped,
		})
		s.pending = nil
		s.limit = 4 + rng.Intn(6)
	}

	for i := range events {
		e := &events[i]
		if e.typeIdx >= len(plan.Types) {
			continue // exclusion events under a single-type plan never ship
		}
		if pred := hostPreds[e.typeIdx]; pred != nil {
			row := hostRow{typ: plan.Types[e.typeIdx], e: e}
			match := pred(row)
			progCtx.Begin(row)
			got := progCtx.Bool(progIDs[e.typeIdx])
			progCtx.Finish()
			if got != match {
				return out, fmt.Errorf("host predicate %s: program says %v, closure %v (request %d)", qp.HostPred[plan.Types[e.typeIdx]], got, match, e.req)
			}
			if !match {
				continue
			}
		}
		cols := plan.Columns[e.typeIdx]
		vals := make([]event.Value, len(cols))
		for ci, c := range cols {
			vals[ci] = e.fields[c]
		}
		// The oracle sees the full matched population from every host —
		// no sampling, no host subsetting: it is the ground truth the
		// sampled estimates are judged against.
		oracleEvents = append(oracleEvents, oracle.Event{
			Host: e.host, TypeIdx: e.typeIdx, RequestID: e.req, TsNanos: e.ts, Values: vals,
		})
		if !shipping[e.host] {
			continue
		}
		k := key(e.host, e.typeIdx)
		s := streams[k]
		if s == nil {
			// First batch is a single tuple (limit 1): it registers the
			// stream with the engines' watermark before real volume flows —
			// see the registration pass below.
			s = &streamState{host: e.host, typeIdx: e.typeIdx, limit: 1}
			streams[k] = s
			streamKeys = append(streamKeys, k)
		}
		s.matched++
		if rate < 1 && rng.Float64() >= rate {
			continue
		}
		s.shipped++
		s.pending = append(s.pending, transport.Tuple{RequestID: e.req, TsNanos: e.ts, Values: vals})
		if len(s.pending) >= s.limit {
			flush(s)
		}
	}
	for _, k := range streamKeys {
		flush(streams[k])
	}

	// --- interleave per-stream batch queues into one delivery order ---

	sort.Strings(streamKeys)
	idx := make(map[string]int, len(streamKeys))
	batchMaxTs := func(b transport.TupleBatch) int64 {
		var m int64
		for _, t := range b.Tuples {
			if t.TsNanos > m {
				m = t.TsNanos
			}
		}
		return m
	}
	// Registration pass: every stream's first (single-tuple) batch is
	// delivered up front, in ascending event-time order. The engines'
	// watermark is a minimum over streams that have shipped at least one
	// tuple — a stream is invisible until then — so a stream whose first
	// batch arrived after others had advanced would find its early windows
	// already closed: a harness artifact, not an engine bug. Registering
	// everyone first keeps the watermark a true minimum over all streams
	// for the remainder of the run, and the ascending order means no
	// first tuple can itself be behind the watermark the earlier ones
	// establish.
	var deliveries []transport.TupleBatch
	for _, k := range streamKeys {
		if len(streams[k].batches) > 0 {
			deliveries = append(deliveries, streams[k].batches[0])
			idx[k] = 1
		}
	}
	sort.SliceStable(deliveries, func(i, j int) bool {
		return batchMaxTs(deliveries[i]) < batchMaxTs(deliveries[j])
	})
	for {
		best, bestTs := "", int64(math.MaxInt64)
		var nonEmpty []string
		for _, k := range streamKeys {
			s := streams[k]
			if idx[k] >= len(s.batches) {
				continue
			}
			nonEmpty = append(nonEmpty, k)
			if ts := batchMaxTs(s.batches[idx[k]]); ts < bestTs {
				best, bestTs = k, ts
			}
		}
		if best == "" {
			break
		}
		// Mostly time order; sometimes an arbitrary ready stream, which
		// models network skew but stays within the lateness bound because
		// each stream is individually near-sorted.
		if len(nonEmpty) > 1 && rng.Intn(4) == 0 {
			best = nonEmpty[rng.Intn(len(nonEmpty))]
		}
		deliveries = append(deliveries, streams[best].batches[idx[best]])
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
	vc := &vclock{}
	ttl := time.Hour
	if cfg.Mode == modeChaos {
		ttl = 2 * time.Second
	}
	opts := central.Options{Clock: vc.now, LeaseTTL: ttl}
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
	topo := newPipeTopology(procs, opts, catalog)
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

	// The tick watermark is valid only once EVERY stream that will ever
	// ship has reported: a minimum over a prefix of the streams runs
	// ahead of the true watermark, and ticking with it would force-close
	// windows that laggard streams still have events for — manufacturing
	// late drops the contracts forbid.
	expectedStreams := 0
	for _, k := range streamKeys {
		if len(streams[k].batches) > 0 {
			expectedStreams++
		}
	}
	streamMax := make(map[string]int64)
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
			if mts > vc.nanos {
				vc.nanos = mts
			}
			k := key(b.HostID, int(b.TypeIdx))
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
			now := vc.nanos
			if cfg.Mode != modeChaos {
				wm, ok := watermark()
				if !ok {
					continue
				}
				now = wm
			}
			eng.Tick(now)
			sh.Tick(now)
			topo.coord.Tick(now)
			fo.coord.Tick(now)
		}
	}
	if cfg.Mode == modeChaos {
		// Let the dead host's lease expire and tick the eviction through.
		vc.nanos += int64(ttl) + int64(5*time.Second)
		eng.Tick(vc.nanos)
		sh.Tick(vc.nanos)
		topo.coord.Tick(vc.nanos)
		fo.coord.Tick(vc.nanos)
		eng.Tick(vc.nanos)
		sh.Tick(vc.nanos)
		topo.coord.Tick(vc.nanos)
		fo.coord.Tick(vc.nanos)
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
	if err := compareStats(engStats, shStats); err != nil {
		return out, fmt.Errorf("cross-engine stats divergence (Engine vs %d-shard): %v\n  query: %s", cfg.Shards, err, src)
	}

	// --- contract D': the multi-process topology agrees too ---

	if err := compareWindowLists(ew, cMP.wins, procs); err != nil {
		return out, fmt.Errorf("cross-engine divergence (Engine vs %d-process topology): %v\n  query: %s", procs, err, src)
	}
	if err := compareStats(engStats, mpStats); err != nil {
		return out, fmt.Errorf("cross-engine stats divergence (Engine vs %d-process topology): %v\n  query: %s", procs, err, src)
	}

	// --- contract D'': the failover topology survives its leader kill ---

	if foPre < 0 {
		// Too few deliveries to kill mid-query: the leader ran the whole
		// sim and must be bit-identical like the other arms (replication
		// on, fencing at term 1 — neither may perturb results).
		if err := compareWindowLists(ew, cFO.wins, procs); err != nil {
			return out, fmt.Errorf("cross-engine divergence (Engine vs replicating leader): %v\n  query: %s", err, src)
		}
		if err := compareStats(engStats, foStats); err != nil {
			return out, fmt.Errorf("cross-engine stats divergence (Engine vs replicating leader): %v\n  query: %s", err, src)
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

func compareStats(a, b transport.QueryStats) error {
	if a != b {
		return fmt.Errorf("final stats: %+v vs %+v", a, b)
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
