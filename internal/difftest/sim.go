package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/host"
	"scrub/internal/oracle"
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
	CovChecked int // sampled-mode (estimate, bound) pairs examined
	CovHit     int // ... of which contained the oracle's exact truth
	Arms       []Arm
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

// Run executes one seeded simulation and checks every applicable
// contract: the seed's draw (generate), its host half (real agents), one
// delivery schedule through every executor arm (Arms), and the oracle. A
// non-nil error is a contract violation (or a harness bug); the caller
// attaches the replay command.
func Run(cfg Config) (*Outcome, error) {
	g, err := generate(cfg)
	out := &Outcome{Query: g.src}
	if err != nil {
		return out, err
	}
	sink, streams, population, err := g.hostHalf()
	if err != nil {
		return out, fmt.Errorf("%v\n  query: %s", err, g.src)
	}
	out.Arms, err = Arms(g.plan, catalog, g.schedule(sink, streams), cfg.Shards)
	if err != nil {
		return out, fmt.Errorf("%v\n  query: %s", err, g.src)
	}
	if cfg.Mode == modeChaos {
		return out, nil // no oracle contract under injected loss
	}
	if err := g.checkOracle(out, population); err != nil {
		return out, fmt.Errorf("%v\n  query: %s", err, g.src)
	}
	return out, nil
}

// decoy is a query an agent runs beside the one under test: its text and
// its span, [0, 0) when it has none.
type decoy struct {
	src        string
	start, end int64
}

// drawDecoys draws a seed's 0–4 decoys, half of them with a span, from a
// source of their own so that the seed's query and streams do not move
// with them.
func drawDecoys(seed int64) []decoy {
	drng := rand.New(rand.NewSource(^seed))
	out := make([]decoy, drng.Intn(5))
	for i := range out {
		d := &out[i]
		d.src = genQuery(drng, drng.Intn(numFamilies), windowShapes)
		if drng.Intn(2) == 0 {
			d.start = drng.Int63n(int64(30 * time.Second))
			d.end = d.start + 1 + drng.Int63n(int64(60*time.Second))
		}
	}
	return out
}

// hostHalf logs every event through its host's agent, flushing at the
// generator's flush points, and holds what the agents shipped to
// checkAgents. It returns the captured batches, the streams under test in
// host then type order, and the oracle's population: every host's
// matched events, sampled or not.
func (g *gen) hostHalf() (capture, []streamKey, []oracle.Event, error) {
	qid := g.plan.QueryID
	// Beside the query under test every agent runs the seed's decoys: they
	// put shared predicate nodes, a type's subscriber list with spanned and
	// open queries in it, and the schema scan under the sweep. Their
	// batches are captured and accounted for, never delivered.
	var decoys []transport.HostQuery
	for i, d := range drawDecoys(g.cfg.Seed) {
		dp, err := analyze(d.src, g.cat)
		if err != nil {
			return nil, nil, nil, err
		}
		decoys = append(decoys, dp.HostQueries(qid+1+uint64(i), d.start, d.end)...)
	}
	sink := capture{}
	agents := make(map[string]*host.Agent, len(g.hosts))
	for _, name := range g.hosts {
		a, err := host.New(agentConfig(name, g.cat, sink))
		if err != nil {
			return nil, nil, nil, err
		}
		defer a.Close()
		hqs := decoys
		if g.shipping[name] {
			hqs = append(g.qp.HostQueries(qid, 0, 0), decoys...)
		}
		for _, hq := range hqs {
			if err := a.Start(hq); err != nil {
				return nil, nil, nil, fmt.Errorf("%s: %v", name, err)
			}
		}
		agents[name] = a
	}

	// want holds, per stream under test, the reference closure's selection
	// (oracle.Input's, below): what the agent must have matched.
	var streams []streamKey
	want := make(map[streamKey][]transport.Tuple)
	for _, h := range g.hosts {
		for t := 0; t < len(g.plan.Types) && g.shipping[h]; t++ {
			streams = append(streams, streamKey{qid, h, uint8(t)})
			want[streamKey{qid, h, uint8(t)}] = nil
		}
	}
	// Besides at the flush points, an agent is flushed after any event of a
	// stream that has not shipped a tuple yet, so that a stream's first
	// tuple ships alone (see the registration pass in interleave).
	registered := make(map[streamKey]bool)
	for i, e := range g.events {
		agents[e.host].Log(e.Event)
		k := streamKey{qid, e.host, uint8(e.typeIdx)}
		_, tested := want[k]
		if fresh := tested && !registered[k]; fresh || g.flushAfter[i] {
			agents[e.host].Flush()
			if fresh {
				registered[k] = firstTuple(sink[k]) >= 0
			}
		}
	}
	for _, h := range g.hosts {
		agents[h].Flush()
		agents[h].Close() // a closing agent ships what it holds: nothing, after the Flush
	}
	population, err := oracle.Input(g.qp, func(emit func(string, *event.Event)) error {
		for _, e := range g.events {
			emit(e.host, e.Event)
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range population {
		k := streamKey{qid, e.Host, uint8(e.TypeIdx)}
		if _, tested := want[k]; tested {
			want[k] = append(want[k], transport.Tuple{RequestID: e.RequestID, TsNanos: e.TsNanos, Values: e.Values})
		}
	}
	return sink, streams, population, checkAgents(sink, qid, g.qp.SampleEvents, want)
}

// schedule turns the captured streams into the one delivery schedule every
// arm replays, drawing on the seed's source (interleave, chaos). Every
// arm's clock is the latest event time delivered so far; every seventh
// delivery ticks — exact modes at the harness-tracked watermark, never
// ahead of what event time has justified, so ticking cannot manufacture
// late drops; chaos at full wall speed, and at the end past the dead
// host's lease, twice, to tick its eviction through.
func (g *gen) schedule(sink capture, streams []streamKey) Schedule {
	deliveries, expected := g.interleave(sink, streams)
	sched := Schedule{LeaseTTL: time.Hour}
	if g.cfg.Mode == modeChaos {
		deliveries = g.chaos(deliveries)
		sched.LeaseTTL = 2 * time.Second
	}
	var clock int64
	streamMax := make(map[streamKey]int64)
	for i := range deliveries {
		b := &deliveries[i]
		if mts := batchMaxTs(b); mts > 0 {
			clock = max(clock, mts)
			streamMax[keyOf(b)] = max(streamMax[keyOf(b)], mts)
		}
		st := Step{Batch: b, Clock: clock}
		if i%7 == 6 {
			st.Tick, st.TickAt = true, clock
			if g.cfg.Mode != modeChaos {
				st.TickAt, st.Tick = watermark(streamMax, expected)
			}
		}
		sched.Steps = append(sched.Steps, st)
	}
	if g.cfg.Mode == modeChaos {
		clock += int64(sched.LeaseTTL + 5*time.Second)
		st := Step{Clock: clock, Tick: true, TickAt: clock}
		sched.Steps = append(sched.Steps, st, st)
	}
	return sched
}

func batchMaxTs(b *transport.TupleBatch) int64 {
	var m int64
	for _, t := range b.Tuples {
		m = max(m, t.TsNanos)
	}
	return m
}

// watermark is the minimum over the streams' latest event times. It is
// valid only once every stream that will ever ship a tuple has reported:
// a minimum over a prefix of the streams runs ahead of the true
// watermark, and ticking with it would force-close windows that laggard
// streams still have events for — manufacturing late drops the contracts
// forbid.
func watermark(streamMax map[streamKey]int64, expected int) (int64, bool) {
	if len(streamMax) < expected || len(streamMax) == 0 {
		return 0, false
	}
	var wm int64 = math.MaxInt64
	for _, ts := range streamMax {
		wm = min(wm, ts)
	}
	return wm, true
}

// interleave merges the per-stream batch queues into one delivery order
// and returns it with the number of streams that ship a tuple.
//
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
func (g *gen) interleave(sink capture, streams []streamKey) ([]transport.TupleBatch, int) {
	idx := make(map[streamKey]int, len(streams))
	var deliveries []transport.TupleBatch
	for _, k := range streams {
		if f := firstTuple(sink[k]); f >= 0 {
			deliveries = append(deliveries, sink[k][:f+1]...)
			idx[k] = f + 1
		}
	}
	expected := len(idx)
	sort.SliceStable(deliveries, func(i, j int) bool {
		return batchMaxTs(&deliveries[i]) < batchMaxTs(&deliveries[j])
	})
	for {
		var best streamKey
		bestTs := int64(math.MaxInt64)
		var nonEmpty []streamKey
		for _, k := range streams {
			if idx[k] >= len(sink[k]) {
				continue
			}
			nonEmpty = append(nonEmpty, k)
			if ts := batchMaxTs(&sink[k][idx[k]]); ts < bestTs {
				best, bestTs = k, ts
			}
		}
		if len(nonEmpty) == 0 {
			return deliveries, expected
		}
		// Mostly time order; sometimes an arbitrary ready stream, which
		// models network skew but stays within the lateness bound because
		// each stream is individually near-sorted.
		if len(nonEmpty) > 1 && g.rng.Intn(4) == 0 {
			best = nonEmpty[g.rng.Intn(len(nonEmpty))]
		}
		deliveries = append(deliveries, sink[best][idx[best]])
		idx[best]++
	}
}

// chaos injects host death, duplicated batches and late redelivery: one
// host stops three fifths through its batches, and of the rest one in
// twenty is delivered twice and one in twenty after everything else.
func (g *gen) chaos(deliveries []transport.TupleBatch) []transport.TupleBatch {
	if len(deliveries) <= 4 {
		return deliveries
	}
	deadHost := g.hosts[g.rng.Intn(len(g.hosts))]
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
		switch g.rng.Intn(20) {
		case 0:
			late = append(late, b) // delayed far beyond lateness
		case 1:
			alive = append(alive, b, b) // duplicated delivery
		default:
			alive = append(alive, b)
		}
	}
	return append(alive, late...)
}

// checkOracle holds the engine arm, which every other arm agrees with, to
// the oracle over the population: exact runs row for row with no late
// drop (contract A); sampled runs by adding their Eq. 1–3 intervals'
// coverage of the exact truth to out (contract B — individual misses are
// expected, and the sweep asserts the aggregate rate).
func (g *gen) checkOracle(out *Outcome, population []oracle.Event) error {
	owins, err := oracle.Eval(g.plan, population)
	if err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	eng := out.Arms[0]
	if g.cfg.Mode == modeExact {
		if eng.Stats.LateDrops != 0 {
			return fmt.Errorf("exact run dropped %d tuples as late — the harness guarantees none are", eng.Stats.LateDrops)
		}
		return oracle.Compare(&g.plan, eng.Windows, owins)
	}
	obyStart := make(map[int64]*oracle.Result, len(owins))
	for i := range owins {
		obyStart[owins[i].Start] = &owins[i]
	}
	for _, w := range eng.Windows {
		o := obyStart[w.WindowStart]
		if o == nil || len(o.AggExact) == 0 || len(w.ErrBounds) == 0 || len(w.Rows) != 1 {
			continue
		}
		for col, item := range g.plan.Select {
			ar, ok := item.Expr.(expr.AggRef)
			if !ok || !ar.Spec.Scalable() || col >= len(w.ErrBounds) {
				continue
			}
			bound := w.ErrBounds[col]
			truth := o.AggExact[ar.Index]
			est, fok := w.Rows[0][col].AsFloat()
			if math.IsNaN(bound) || math.IsNaN(truth) || !fok {
				continue
			}
			out.CovChecked++
			if math.Abs(est-truth) <= bound+1e-9*math.Abs(truth) {
				out.CovHit++
			}
		}
	}
	return nil
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
