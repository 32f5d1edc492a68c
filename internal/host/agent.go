// Package host implements the Scrub agent embedded in each application
// process. The agent owns the paper's host-side responsibilities and
// nothing else: it activates query objects pushed by the query server,
// and for each log()ed event runs selection, projection, and event
// sampling, then ships the surviving tuples to ScrubCentral in batches.
//
// The design constraint that shapes everything here is the paper's
// headline requirement: minimal impact on the application. Concretely:
//
//   - Log never blocks. The shipping queue is bounded; when it fills,
//     tuples are dropped and counted. Accuracy is traded for impact.
//   - With no active queries, Log is one atomic pointer load and a
//     lookup in an empty map.
//   - Log makes no steady-state heap allocations. Projected tuples are
//     appended into per-query chunk buffers backed by a sync.Pool whose
//     flat value arrays are recycled after shipment, and only a full
//     chunk (not every tuple) crosses a channel to the shipper, so the
//     synchronization cost is amortized ~BatchSize×.
//   - Event sampling is amortized too: instead of drawing RNG per event,
//     a geometric skip count is drawn per *kept* event, so an unsampled
//     event costs one atomic decrement.
//   - No joins, group-bys, or aggregations ever run here — those belong
//     to ScrubCentral. Selection and projection run on the host only
//     because they shrink what must be shipped.
//
//scrub:longlived
package host

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/governor"
	"scrub/internal/obs"
	"scrub/internal/replay"
	"scrub/internal/sampling"
	"scrub/internal/transport"
)

// Sink receives tuple batches bound for ScrubCentral. Implementations:
// a transport connection (production) or a direct engine handle (tests,
// single-process clusters).
//
// Ownership: the batch — including the Tuples slice and every tuple's
// Values backing array — is only valid for the duration of the call. The
// agent recycles the memory as soon as SendBatch returns, so an
// implementation that retains tuples past the call must copy them.
// Encoding sinks (the wire, serialize-and-discard benchmarks) copy by
// construction; the central engine copies the tuples it keeps.
//
// Failure: an error wrapping ErrUndelivered says nobody received the
// batch, and the agent keeps it for redelivery; any other error loses
// the batch's tuples, counted as Stats.SinkErrorTuples.
type Sink interface {
	SendBatch(transport.TupleBatch) error
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(transport.TupleBatch) error

// SendBatch implements Sink.
func (f SinkFunc) SendBatch(b transport.TupleBatch) error { return f(b) }

// Config parametrizes an Agent.
type Config struct {
	HostID  string
	Service string
	DC      string
	Catalog *event.Catalog
	Sink    Sink

	// QueueSize bounds (in tuples) the pending work shared by all queries
	// on this host; it is rounded to whole chunks of BatchSize tuples.
	// Default 8192. When full, Log drops (never blocks). The chunks the
	// sink reports undelivered are kept for redelivery under the same
	// bound, oldest evicted into the queue drops.
	QueueSize int
	// BatchSize is the chunk capacity: Log appends tuples into a
	// per-query chunk and the shipper sends one TupleBatch per full
	// chunk. Default 256.
	BatchSize int
	// FlushInterval flushes partial chunks at least this often.
	// Default 100ms.
	FlushInterval time.Duration
	// HeartbeatInterval bounds how long a query goes without shipping
	// anything: a query whose last batch is older than this gets a
	// counter-only heartbeat even when its totals haven't moved, so
	// ScrubCentral's stream liveness lease stays renewed for healthy
	// hosts with nothing to report. Default 1s.
	HeartbeatInterval time.Duration
	// Clock substitutes time.Now for tests and simulations.
	Clock func() time.Time
	// Metrics, when non-nil, registers the agent's scrub_host_* series
	// (labeled host=HostID) and enables the sampled Log-latency
	// histogram. Nil skips exposition; the counters run either way.
	Metrics *obs.Registry
	// Governor tunes budget enforcement (zero value = package defaults).
	// Per-query budgets arrive with each HostQuery; Governor.HostBudget
	// additionally caps the aggregate impact of all queries on this host.
	Governor governor.Config
	// Record, when non-nil, appends every logged event to the host's
	// replay store, and queries arriving with ReplayNanos ship matching
	// history from it before going live. Nil disables recording: Log then
	// pays a single pointer comparison for the feature.
	Record *replay.Store
}

func (c *Config) fillDefaults() error {
	if c.HostID == "" {
		return fmt.Errorf("host: empty HostID")
	}
	if c.Service == "" {
		return fmt.Errorf("host: empty Service")
	}
	if c.Catalog == nil {
		return fmt.Errorf("host: nil Catalog")
	}
	if c.Sink == nil {
		return fmt.Errorf("host: nil Sink")
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 8192
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 100 * time.Millisecond
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return nil
}

// queryKey identifies an installed query object. A join query installs
// one object per event type on each host, all sharing the query id, so
// the key includes the type index.
type queryKey struct {
	id      uint64
	typeIdx uint8
}

// activeQuery is one installed query object, pre-compiled for the hot
// path.
type activeQuery struct {
	// What the agent still reads of the installed transport.HostQuery once
	// canon and colIdx are built from its Pred and Columns.
	queryID     uint64
	typeIdx     uint8
	schema      *event.Schema // the catalog's schema for EventType
	replayNanos int64
	// canon is the query's selection predicate in canonical form
	// (expr.Canon), nil to match everything. Start interns it into the
	// event type's shared program and refuses the query if that fails, so
	// a full rebuild's re-intern of the same tree cannot fail.
	canon  expr.Node
	colIdx []int // schema field indices to project
	width  int   // len(colIdx), the projected tuple width
	// The query's span, [startNs, endNs); 0 leaves that side open.
	startNs, endNs int64

	// live is the lane Log dispatches the query's events on.
	live lane

	// Governor state. baseRate/seed/budget are immutable after Start;
	// tracker, shed, step, bytesShipped, and the last* interval marks
	// are owned by the shipper goroutine (shed is additionally written
	// under the agent mutex so rebuildLocked can read it from any
	// goroutine). cpuNs is the sampled hot-path cost: 1 in 64 matched
	// events is timed and charged ×64.
	baseRate     float64
	seed         uint64
	budget       governor.Budget
	tracker      *governor.Tracker
	shed         bool
	step         uint8 // the live lane's governor step (stepRate)
	cpuNs        atomic.Uint64
	bytesShipped uint64
	lastCPUNs    uint64
	lastBytes    uint64

	// stopped flips when the query is removed (Stop, span expiry) or shed
	// by the governor; the replay scanner polls it so historical shipping
	// for a dead query aborts instead of running its scan to completion.
	stopped atomic.Bool

	matched atomic.Uint64 // Mᵢ: events passing selection
	// sampled is mᵢ: events surviving event sampling. Maintained only
	// when sampling is active — at rate 1 every matched event is sampled,
	// so sendBatch reports mᵢ = Mᵢ without a second per-event atomic.
	sampled atomic.Uint64
	drops   atomic.Uint64 // queue-full drops
	// Heartbeat change detection, shipper-goroutine only. The counters a
	// successful batch carried are snapshotted in last{Matched,Sampled,
	// Drops}; flushCycle heartbeats when the live counters have moved past
	// the snapshots, so the hot path never touches a dirty flag. A bump
	// racing a send is caught by the next cycle's comparison (the snapshot
	// records what was sent, not what was current afterwards), and a
	// failed send leaves the snapshots alone — a bump is either included
	// in a successful batch or still visible to the comparison, never
	// silently skipped. announce covers the non-counter batch fields
	// (step, BudgetShed), which only the shipper itself mutates.
	announce                            bool
	lastMatched, lastSampled, lastDrops uint64
	// lastSentNanos is when the last batch for this query reached the
	// sink. Initialized at Start so a fresh query's first heartbeat honors
	// HeartbeatInterval; shipper-goroutine only afterwards.
	lastSentNanos int64
}

// lane is one configuration of dispatch's per-query half (dispatch.go):
// the sampler that keeps or skips a matched event and the chunk a kept
// event is projected into. Log runs a query's live lane; a replay scan
// runs the same dispatch on a lane of its own, so history and live
// traffic share selection, Mᵢ/mᵢ accounting, sampling and projection,
// and never a chunk or a sampler's sequence.
type lane struct {
	aq *activeQuery
	// epoch tags the lane's chunks: 0 live, nonzero replayed history.
	epoch uint32

	// Event sampling, amortized: skip counts down to the next kept event;
	// an unsampled event is one atomic decrement. sampleAll short-circuits
	// the common rate-1 case; it is atomic because the governor lowers the
	// rate from the shipper goroutine while Log reads it lock-free.
	// sampler re-draws are guarded by mu (the kept event takes that lock
	// anyway to append its tuple).
	sampleAll atomic.Bool
	skip      atomic.Int64
	//scrub:guardedby(mu)
	sampler *sampling.GeometricSampler

	mu sync.Mutex // guards cur, sampler and step
	// cur is the partially filled chunk, nil when none.
	//scrub:guardedby(mu)
	cur *chunk
	// step is the sampler's governor halvings below the base rate.
	//scrub:guardedby(mu)
	step uint8
}

// stepRate is the rate step governor halvings below base, exactly.
func stepRate(base float64, step uint8) float64 { return math.Ldexp(base, -int(step)) }

// arm starts a fresh sampler step halvings below the base rate under seed
// and hands back the chunk filled before (nil if none). A lane's first arm at
// rate 1 takes the counter-free fast path. A re-arm leaves it for good:
// it seeds the sampled counter with the matched total (at rate 1,
// mᵢ = Mᵢ) so the cumulative accounting stays exact across the
// transition. A Log racing past the flag flip may ship one tuple
// uncounted in mᵢ — a one-time, one-event skew the estimator cannot
// notice. Once off the fast path a lane never returns to it (a full
// recovery runs a rate-1 sampler instead), because re-deriving mᵢ = Mᵢ
// after a degraded period would overstate the sample.
func (ln *lane) arm(step uint8, seed uint64) *chunk {
	rate := stepRate(ln.aq.baseRate, step)
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.sampler == nil {
		ln.sampleAll.Store(rate >= 1)
	} else if ln.sampleAll.Load() {
		ln.aq.sampled.Store(ln.aq.matched.Load())
		ln.sampleAll.Store(false)
	}
	ln.sampler = sampling.NewGeometricSampler(rate, seed)
	ln.skip.Store(ln.sampler.NextSkip())
	ln.step = step
	c := ln.cur
	ln.cur = nil
	return c
}

// take empties the lane's chunk and returns it, nil when there is none.
func (ln *lane) take() *chunk {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	c := ln.cur
	ln.cur = nil
	return c
}

// chunk is a block of pending tuples for one query. tuples has BatchSize
// capacity; vals is the flat backing array the tuples' Values slices are
// carved from, so filling a chunk allocates nothing. Chunks recycle
// through chunkPool; scrubvet's poolsafe analyzer flags any retention
// outside the agent's own pool plumbing.
//
//scrub:pooled
type chunk struct {
	q *activeQuery
	n int
	// epoch tags a chunk of historical tuples replayed from the record
	// stream (nonzero = replay); done marks the stream's final replay
	// chunk. Live chunks leave both zero.
	epoch  uint32
	done   bool
	step   uint8 // the lane's step when the chunk was started: its tuples' rate
	tuples []transport.Tuple
	vals   []event.Value
}

// Stats is a snapshot of agent-level accounting.
type Stats struct {
	Logged    uint64 // events offered to Log
	Matched   uint64 // events matching ≥1 active query
	Shipped   uint64 // tuples the sink took, redelivered ones once
	ShipBytes uint64 // wire bytes of the batches the sink took, heartbeats included
	// QueueDrops counts tuples dropped because the queue was full, and
	// those of kept chunks evicted or still kept at Close.
	QueueDrops uint64
	SinkErrors uint64 // sends the sink failed, undelivered ones included
	// SinkErrorTuples counts the tuples of batches the sink failed without
	// ErrUndelivered: the agent gives them up (coord.Router's shard and
	// manifest failures). They close the identity
	// matched = sampled out + Shipped + QueueDrops + SinkErrorTuples,
	// which holds for every sink once nothing is Kept.
	SinkErrorTuples uint64
	// Kept counts the tuples held for redelivery after the sink reported
	// them undelivered (scrub_host_spill_depth).
	Kept uint64
	// Governor ladder actions across all queries this agent ran.
	GovernorDownsamples uint64
	GovernorRecovers    uint64
	GovernorSheds       uint64
}

// Agent is the per-host Scrub runtime. Create with New, feed with Log,
// manage with Start/Stop, terminate with Close.
type Agent struct {
	cfg Config

	// byType is an immutable snapshot, swapped wholesale on query
	// start/stop. Log only ever loads it — no locks on the hot path.
	byType atomic.Pointer[typeIndex]

	mu      sync.Mutex // guards mutations of the query set
	queries map[queryKey]*activeQuery

	chunkPool sync.Pool
	chunks    chan *chunk
	flushReq  chan chan struct{}
	done      chan struct{}
	closed    sync.Once
	wg        sync.WaitGroup

	// shipperScratch and govScratch are reused across flush cycles;
	// shipper-only.
	shipperScratch []*activeQuery
	govScratch     []governor.Usage
	// kept holds the chunks the sink reported undelivered, oldest first,
	// at most cap(chunks) of them; shipper-only.
	kept []*chunk
	// lastGovNanos is the previous governor evaluation time; shipper-only.
	// Cycles where the configured clock has not advanced (real ticker
	// firings under a virtual test clock) skip evaluation entirely.
	lastGovNanos int64

	// Agent accounting, obs-native so a configured registry exposes the
	// same counters Stats() reports — no parallel bookkeeping.
	logged         obs.Counter
	matched        obs.Counter
	shipped        obs.Counter
	queueDrops     obs.Counter
	sinkErrors     obs.Counter
	sinkErrTuples  obs.Counter
	chunkFills     obs.Counter
	shipBytes      obs.Counter
	keptTuples     obs.Gauge   // tuples across kept
	keptDrops      obs.Counter // kept tuples evicted or dropped at Close; a subset of queueDrops
	govDownsamples obs.Counter
	govRecovers    obs.Counter
	govSheds       obs.Counter
	// indexRebuilds counts dispatch snapshots built (query start, stop,
	// expiry, shed): a start interns its own predicate, the others
	// re-intern every live predicate of every type.
	indexRebuilds obs.Counter
	// Replay shipping accounting: historical tuples (and their encoded
	// bytes) shipped from the record stream on behalf of REPLAY queries.
	// Subsets of shipped/shipBytes, split out so replay load is visible.
	replayShipped   obs.Counter
	replayShipBytes obs.Counter
	// logNs is the sampled Log-call latency (1 in 64 calls timed); nil
	// unless a Metrics registry was configured, so unobserved agents pay
	// nothing for it.
	logNs *obs.Histogram
}

// New creates and starts an agent (its shipper goroutine runs until
// Close).
func New(cfg Config) (*Agent, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	slots := cfg.QueueSize / cfg.BatchSize
	if slots < 2 {
		slots = 2
	}
	a := &Agent{
		cfg:      cfg,
		queries:  make(map[queryKey]*activeQuery),
		chunks:   make(chan *chunk, slots),
		flushReq: make(chan chan struct{}),
		done:     make(chan struct{}),
	}
	a.byType.Store(newTypeIndex(nil))
	a.lastGovNanos = cfg.Clock().UnixNano()
	if reg := cfg.Metrics; reg != nil {
		hl := obs.L("host", cfg.HostID)
		reg.RegisterCounter("scrub_host_logged_total", "events offered to Log", &a.logged, hl)
		reg.RegisterCounter("scrub_host_matched_total", "events matching at least one active query", &a.matched, hl)
		reg.RegisterCounter("scrub_host_shipped_total", "tuples handed to the sink", &a.shipped, hl)
		reg.RegisterCounter("scrub_host_queue_drops_total", "tuples dropped because the shipping queue was full", &a.queueDrops, hl)
		reg.RegisterCounter("scrub_host_sink_errors_total", "batches the sink rejected", &a.sinkErrors, hl)
		reg.RegisterCounter("scrub_host_sink_error_tuples_total", "tuples the agent gave up because the sink rejected their batch", &a.sinkErrTuples, hl)
		reg.RegisterCounter("scrub_host_chunk_fills_total", "chunks filled to BatchSize and submitted", &a.chunkFills, hl)
		reg.RegisterCounter("scrub_host_ship_bytes_total", "encoded bytes of batches handed to the sink", &a.shipBytes, hl)
		reg.RegisterGauge("scrub_host_spill_depth", "tuples buffered across a central disconnect", &a.keptTuples, hl)
		reg.RegisterCounter("scrub_host_spill_drops_total", "tuples the spill buffer evicted", &a.keptDrops, hl)
		reg.RegisterCounter("scrub_host_governor_downsamples_total", "budget governor rate halvings", &a.govDownsamples, hl)
		reg.RegisterCounter("scrub_host_governor_recovers_total", "budget governor rate recoveries", &a.govRecovers, hl)
		reg.RegisterCounter("scrub_host_governor_sheds_total", "queries shed by the budget governor", &a.govSheds, hl)
		reg.RegisterCounter("scrub_host_index_rebuilds_total", "shared query index snapshots built (query start, stop, expiry, shed)", &a.indexRebuilds, hl)
		reg.RegisterCounter("scrub_host_replay_shipped_total", "historical tuples shipped from the record stream", &a.replayShipped, hl)
		reg.RegisterCounter("scrub_host_replay_ship_bytes_total", "encoded bytes of replay batches handed to the sink", &a.replayShipBytes, hl)
		a.logNs = obs.NewHistogram(obs.ExpBuckets(64, 4, 10))
		reg.RegisterHistogram("scrub_host_log_ns", "sampled Log call latency in nanoseconds (1 in 64 calls)", a.logNs, hl)
	}
	a.wg.Add(1)
	go a.shipper()
	return a, nil
}

// ID returns the agent's host identifier.
func (a *Agent) ID() string { return a.cfg.HostID }

// Catalog returns the agent's event catalog.
func (a *Agent) Catalog() *event.Catalog { return a.cfg.Catalog }

// Start installs a query object. Unknown event types and unknown
// projection columns are rejected — the server validated against the same
// catalog, so a mismatch means skew, and refusing is safer than shipping
// garbage.
func (a *Agent) Start(hq transport.HostQuery) error {
	schema, ok := a.cfg.Catalog.Lookup(hq.EventType)
	if !ok {
		return fmt.Errorf("host: unknown event type %q", hq.EventType)
	}
	aq := &activeQuery{queryID: hq.QueryID, typeIdx: hq.TypeIdx, schema: schema,
		replayNanos: hq.ReplayNanos, startNs: hq.StartNanos, endNs: hq.EndNanos}
	if hq.Pred != nil {
		checked, kind, err := expr.Check(hq.Pred, expr.SchemaResolver{Schemas: []*event.Schema{schema}})
		if err != nil {
			return fmt.Errorf("host: bad predicate: %w", err)
		}
		if kind != event.KindBool {
			return fmt.Errorf("host: predicate is %s, not bool", kind)
		}
		aq.canon = expr.Canon(checked)
	}
	aq.colIdx = make([]int, len(hq.Columns))
	for i, col := range hq.Columns {
		idx := schema.FieldIndex(col)
		if idx < 0 {
			return fmt.Errorf("host: event type %q has no field %q", hq.EventType, col)
		}
		aq.colIdx[i] = idx
	}
	aq.width = len(aq.colIdx)
	rate := hq.SampleEvents
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	// Seed ties the sample to (query, host) so re-runs are reproducible
	// but hosts sample independently. FNV-1a over the full HostID keeps
	// anagram host ids (h-ab vs h-ba) uncorrelated.
	h := fnv.New64a()
	h.Write([]byte(a.cfg.HostID))
	seed := hq.QueryID*1000003 ^ h.Sum64()
	aq.baseRate = rate
	aq.seed = seed
	aq.live.aq = aq
	aq.live.arm(0, seed)
	aq.budget = governor.Budget{CPUPct: hq.BudgetCPUPct, BytesPerSec: hq.BudgetBytesPerSec}
	aq.tracker = governor.NewTracker()
	// Stamp the heartbeat clock now: a fresh query with nothing to report
	// sends its first counter-only heartbeat one HeartbeatInterval after
	// activation, not on the first flush tick.
	aq.lastSentNanos = a.cfg.Clock().UnixNano()

	key := queryKey{id: hq.QueryID, typeIdx: hq.TypeIdx}
	a.mu.Lock()
	if _, dup := a.queries[key]; dup {
		a.mu.Unlock()
		return fmt.Errorf("host: query %d (type %s) already active", hq.QueryID, hq.EventType)
	}
	if err := a.installLocked(aq); err != nil {
		a.mu.Unlock()
		return fmt.Errorf("host: compile predicate: %w", err)
	}
	a.queries[key] = aq
	a.mu.Unlock()
	if hq.ReplayNanos > 0 && a.cfg.Record != nil {
		a.wg.Add(1)
		go a.replayShip(aq)
	}
	return nil
}

// Stop removes a query's objects (all event types); unknown ids are a
// no-op — stop is idempotent because span expiry and explicit cancel can
// race.
func (a *Agent) Stop(queryID uint64) {
	a.retire(func(aq *activeQuery) bool { return aq.queryID == queryID })
}

// ActiveQueries returns the distinct ids of installed queries.
func (a *Agent) ActiveQueries() []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	seen := make(map[uint64]bool, len(a.queries))
	out := make([]uint64, 0, len(a.queries))
	for key := range a.queries {
		if !seen[key.id] {
			seen[key.id] = true
			out = append(out, key.id)
		}
	}
	return out
}

// PruneExpired removes queries whose span ended before now. The server
// also sends StopQuery; pruning is the local backstop so an unreachable
// server cannot leave load on the host (paper: spans guard against
// forgotten queries).
func (a *Agent) PruneExpired(now time.Time) int {
	nowN := now.UnixNano()
	return a.retire(func(aq *activeQuery) bool { return aq.endNs != 0 && nowN >= aq.endNs })
}

// retire removes the query objects match selects and returns how many it
// removed. A removed query's partial chunk is pushed to the shipper so
// removal does not lose sampled tuples.
func (a *Agent) retire(match func(*activeQuery) bool) int {
	a.mu.Lock()
	var removed []*activeQuery
	for key, aq := range a.queries {
		if match(aq) {
			delete(a.queries, key)
			removed = append(removed, aq)
		}
	}
	if len(removed) > 0 {
		a.rebuildLocked()
	}
	a.mu.Unlock()
	for _, aq := range removed {
		aq.stopped.Store(true)
		a.salvage(aq)
	}
	return len(removed)
}

// installLocked swaps in a snapshot that dispatches aq's events too. Only
// aq's event type is re-snapshotted: its program is seeded from the
// type's live one (expr.Program.Builder), so only aq's predicate is
// interned and every other subscriber keeps its node id; every other
// type's typeProgram, pooled dispatch contexts included, is carried over
// as it is. A predicate that does not intern spoils only the seeded copy
// and is returned. Node ids therefore follow install order until a full
// rebuild renumbers them.
func (a *Agent) installLocked(aq *activeQuery) error {
	cur := a.byType.Load()
	name := aq.schema.Name()
	tp := cur.byName[name]
	b := expr.NewProgramBuilder()
	if tp != nil && tp.prog != nil {
		b = tp.prog.Builder()
	}
	s := subscriber{ln: &aq.live, pred: -1, startNs: aq.startNs, endNs: aq.endNs}
	if aq.canon != nil {
		id, err := b.Intern(aq.canon)
		if err != nil {
			return err
		}
		s.pred = id
	}
	subs := []subscriber{s}
	if tp != nil {
		subs = withSubscriber(tp, s)
	}
	m := make(map[string]*typeProgram, len(cur.byName)+1)
	maps.Copy(m, cur.byName)
	m[name] = buildTypeProgram(aq.schema, b.Build(), subs)
	a.swapLocked(m)
	return nil
}

// rebuildLocked swaps in a snapshot built from nothing: each event type's
// queries compiled into one shared typeProgram (see that type's comment)
// over a fresh program, which compacts away the nodes of queries that
// left. Removal (Stop, span expiry) and governor shed take this path.
// Shed queries are excluded — they stop paying per-event cost entirely —
// but stay in a.queries so heartbeats keep announcing the BudgetShed
// state. A type's queries are interned in (QueryID, TypeIdx) order, so a
// rebuild numbers the nodes of a query set the same way whatever the map
// iteration or install order was.
func (a *Agent) rebuildLocked() {
	perType := make(map[*event.Schema][]subscriber)
	for _, aq := range a.queries {
		if !aq.shed {
			perType[aq.schema] = append(perType[aq.schema], subscriber{ln: &aq.live, startNs: aq.startNs, endNs: aq.endNs})
		}
	}
	m := make(map[string]*typeProgram, len(perType))
	for schema, subs := range perType {
		m[schema.Name()] = compileTypeProgram(schema, subs)
	}
	a.swapLocked(m)
}

// swapLocked installs m as the dispatch snapshot.
func (a *Agent) swapLocked(m map[string]*typeProgram) {
	a.indexRebuilds.Inc()
	if reg := a.cfg.Metrics; reg != nil {
		a.publishIndexSize(reg, m)
	}
	a.byType.Store(newTypeIndex(m))
}

// publishIndexSize sets scrub_host_program_nodes — what Log's selection
// cost on an event type is linear in — for every type in the snapshot
// about to be installed, and zeroes the types whose last query just left.
func (a *Agent) publishIndexSize(reg *obs.Registry, next map[string]*typeProgram) {
	nodes := func(typ string) *obs.Gauge {
		return reg.Gauge("scrub_host_program_nodes", "distinct predicate subexpressions in the event type's shared query index",
			obs.L("host", a.cfg.HostID), obs.L("type", typ))
	}
	for typ := range a.byType.Load().byName {
		if next[typ] == nil {
			nodes(typ).Set(0)
		}
	}
	for typ, tp := range next {
		n := 0
		if tp.prog != nil {
			n = tp.prog.NumNodes()
		}
		nodes(typ).Set(int64(n))
	}
}

// Log offers one event to every active query. This is the application hot
// path: selection → Mᵢ count → sampling → projection → chunk append. It
// never blocks, never returns an error to the caller, and makes no
// steady-state heap allocations; all losses are counted. scrubvet's
// hotpath analyzer enforces the no-allocation claim transitively.
//
//scrub:hotpath
func (a *Agent) Log(ev *event.Event) {
	if rs := a.cfg.Record; rs != nil {
		rs.Append(ev)
	}
	seq := a.logged.IncValue()
	// Self-observation must cost less than the thing observed: 1 in 64
	// calls is timed into the latency histogram, and only when a registry
	// was configured.
	timed := a.logNs != nil && seq&costSampleMask == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if tp := a.byType.Load().find(ev.Schema); tp != nil {
		a.dispatch(tp, ev)
	}
	if timed {
		a.logNs.Observe(float64(time.Since(t0)))
	}
}

// Cost sampling: 1 in every 2^costSampleShift matched events (and Log
// calls) is wall-clock timed, and the measurement is charged at
// 2^costSampleShift× — cheap enough for the hot path, accurate enough
// for budget enforcement over 100ms+ intervals.
const (
	costSampleShift = 6
	costSampleMask  = 1<<costSampleShift - 1
)

// submit hands a full (or salvaged) chunk to the shipper without
// blocking; when the shipping queue is backlogged the whole chunk is
// dropped and every tuple counted.
func (a *Agent) submit(c *chunk) {
	select {
	//scrub:allowretain(ownership handoff: the shipper goroutine ships and recycles the chunk)
	case a.chunks <- c:
	default:
		a.drop(c)
	}
}

// drop gives a chunk up, charging its tuples to its query's queue drops.
func (a *Agent) drop(c *chunk) {
	n := uint64(c.n)
	c.q.drops.Add(n)
	a.queueDrops.Add(n)
	a.putChunk(c)
}

// getChunk takes a pooled chunk and sizes its flat value array for the
// query's projection width. Steady state allocates nothing; a fresh
// allocation happens only when the pool is empty or a wider query first
// uses a recycled chunk.
func (a *Agent) getChunk(aq *activeQuery) *chunk {
	c, _ := a.chunkPool.Get().(*chunk)
	if c == nil {
		//scrub:allowalloc(pool-miss refill; amortized to zero in steady state)
		c = &chunk{tuples: make([]transport.Tuple, a.cfg.BatchSize)}
	}
	if need := len(c.tuples) * aq.width; cap(c.vals) < need {
		//scrub:allowalloc(first use by a wider query re-sizes the recycled arena)
		c.vals = make([]event.Value, need)
	}
	c.q = aq
	c.n = 0
	return c
}

// putChunk clears value references (so pooled chunks don't pin event
// payloads) and recycles the chunk.
func (a *Agent) putChunk(c *chunk) {
	clear(c.vals[:c.n*c.q.width])
	clear(c.tuples[:c.n])
	*c = chunk{tuples: c.tuples, vals: c.vals}
	a.chunkPool.Put(c)
}

// salvage pushes a removed query's partial chunk to the shipper so stop
// and span expiry don't lose sampled tuples.
func (a *Agent) salvage(aq *activeQuery) {
	c := aq.live.take()
	if c == nil {
		return
	}
	if c.n == 0 {
		a.putChunk(c)
		return
	}
	a.submit(c)
}

// replayShip scans the record stream for a query's replay span —
// [StartNanos-ReplayNanos, StartNanos), the complement of the live
// partition, so replayed and live tuples never overlap — and ships the
// matching history through the normal chunk/shipper path tagged with the
// replay epoch, ending with a ReplayDone marker batch. Runs as its own
// goroutine per replaying query: the scan is disk- and decode-bound and
// must never touch the application's Log latency.
//
// Each recorded event goes through Log's dispatch, on a lane of the
// scan's own and a one-query index with an open span (the scan's time
// range is the span). The lane's fresh sampler runs at the query's base
// rate under its own seed, as the live lane's did at Start, so a replay
// whose live rate the governor never changed keeps exactly the events a
// query submitted before them would have kept, and ships them at that
// rate. Replayed matches fold into the query's cumulative Mᵢ/mᵢ, so
// central's estimator and stream stats see the same counts.
//
// Replay shipping inherits every impact bound live shipping has: chunks
// go through the same bounded queue (a backlog drops them, counted as
// queue drops), the encoded bytes land in the same governor accounting,
// and a shed or stopped query aborts the scan mid-flight. The ReplayDone
// marker itself can be dropped under backlog; central's replay hold has
// a lease-clock deadline for exactly that case.
func (a *Agent) replayShip(aq *activeQuery) {
	defer a.wg.Done()
	to := aq.startNs
	if to == 0 {
		// Immediate-start query: the live partition begins at activation.
		to = a.cfg.Clock().UnixNano()
	}
	ln := &lane{aq: aq, epoch: 1}
	ln.arm(0, aq.seed)
	tp := compileTypeProgram(aq.schema, []subscriber{{ln: ln}})
	// A failed or aborted scan still owes the done marker below.
	_ = a.cfg.Record.Scan(to-aq.replayNanos, to, aq.schema.Name(), func(ev *event.Event) bool {
		if aq.stopped.Load() {
			return false
		}
		select {
		case <-a.done:
			return false
		default:
		}
		a.dispatch(tp, ev)
		return true
	})
	c := ln.take()
	if aq.stopped.Load() {
		// Dead query: drop the partial chunk, skip the marker (central
		// tears the query's state down independently).
		if c != nil {
			a.putChunk(c)
		}
		return
	}
	// Final partial chunk doubles as the done marker; an empty scan still
	// sends an explicit (tuple-free) marker so central can release the
	// hold without waiting out the deadline.
	if c == nil {
		c = a.getChunk(aq)
		c.epoch = ln.epoch
	}
	c.done = true
	a.submit(c)
}

// shipper drains full chunks as they arrive and runs a flush cycle on
// the timer, on explicit Flush requests, and at shutdown.
func (a *Agent) shipper() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case c := <-a.chunks:
			a.ship(c)
		case ack := <-a.flushReq:
			a.flushCycle()
			close(ack)
		case <-ticker.C:
			a.flushCycle()
			a.PruneExpired(a.cfg.Clock())
		case <-a.done:
			a.flushCycle()
			for len(a.kept) > 0 {
				a.evict()
			}
			return
		}
	}
}

// flushCycle drains queued chunks, swaps out and ships every query's
// partial chunk, then sends counter-only heartbeats for queries whose
// totals moved without producing tuples.
func (a *Agent) flushCycle() {
	for {
		select {
		case c := <-a.chunks:
			a.ship(c)
			continue
		default:
		}
		break
	}
	a.mu.Lock()
	actives := a.shipperScratch[:0]
	for _, aq := range a.queries {
		actives = append(actives, aq)
	}
	a.shipperScratch = actives
	a.mu.Unlock()
	for _, aq := range actives {
		c := aq.live.take()
		if c == nil {
			continue
		}
		if c.n > 0 {
			a.ship(c)
		} else {
			a.putChunk(c)
		}
	}
	// A heartbeat never overtakes kept tuples: its totals count them.
	if a.redeliver() {
		now := a.cfg.Clock().UnixNano()
		for _, aq := range actives {
			if aq.needsHeartbeat() || now-aq.lastSentNanos >= int64(a.cfg.HeartbeatInterval) {
				_ = a.sendBatch(aq, &chunk{step: aq.step}) // a failure leaves the snapshots to retry
			}
		}
	}
	a.governTick(actives)
}

// ship sends one chunk's tuples and recycles the chunk. A chunk the sink
// reports undelivered is kept for redelivery, and so is every chunk
// shipped while an older one is still kept: the sink sees chunks in the
// order they were shipped.
func (a *Agent) ship(c *chunk) {
	if a.redeliver() && !errors.Is(a.sendBatch(c.q, c), ErrUndelivered) {
		a.putChunk(c)
		return
	}
	if len(a.kept) == cap(a.chunks) {
		a.evict()
	}
	//scrub:allowretain(the agent's own retransmit buffer; a kept chunk is recycled only once delivered, given up or evicted)
	a.kept = append(a.kept, c)
	a.keptTuples.Add(int64(c.n))
}

// redeliver resends kept chunks oldest-first and reports whether none is
// left; it stops at the first the sink reports undelivered again. A
// redelivered chunk counts once, as shipped, with the query's totals as
// they are now.
func (a *Agent) redeliver() bool {
	for len(a.kept) > 0 {
		c := a.kept[0]
		if errors.Is(a.sendBatch(c.q, c), ErrUndelivered) {
			return false
		}
		a.putChunk(a.popKept())
	}
	return true
}

// evict drops the oldest kept chunk.
func (a *Agent) evict() {
	c := a.popKept()
	a.keptDrops.Add(uint64(c.n))
	a.drop(c)
}

// popKept takes the oldest chunk out of kept.
func (a *Agent) popKept() *chunk {
	c := a.kept[0]
	//scrub:allowretain(shifts kept down a slot within its own array)
	n := copy(a.kept, a.kept[1:])
	a.kept[n] = nil
	//scrub:allowretain(truncates kept's own array, whose last slot was just cleared)
	a.kept = a.kept[:n]
	a.keptTuples.Add(-int64(c.n))
	return c
}

// needsHeartbeat reports whether the query has anything new to announce:
// cumulative counters that moved past what the last successful batch
// carried, or a pending non-counter change (rate, shed). Shipper-
// goroutine only. A counter bump racing this comparison is caught by the
// next cycle — the snapshots record what was sent, never what is current.
func (aq *activeQuery) needsHeartbeat() bool {
	return aq.announce ||
		aq.matched.Load() != aq.lastMatched ||
		aq.sampled.Load() != aq.lastSampled ||
		aq.drops.Load() != aq.lastDrops
}

// sendBatch ships a chunk's tuples — none for a counter-only heartbeat,
// an empty chunk at the query's step — with the chunk's rate, epoch and
// done mark and the query's cumulative accounting, and returns the sink's
// error. On success the counter snapshots record what the batch carried;
// a failed send leaves them alone, so the same totals trigger a resend on
// the next cycle (see needsHeartbeat). A failure without ErrUndelivered
// loses the tuples, counted as sink-error tuples.
func (a *Agent) sendBatch(aq *activeQuery, c *chunk) error {
	matched := aq.matched.Load()
	sampledRaw := aq.sampled.Load()
	drops := aq.drops.Load()
	sampled := sampledRaw
	if aq.live.sampleAll.Load() {
		sampled = matched // rate 1: every matched event is sampled
	}
	batch := transport.TupleBatch{
		QueryID:      aq.queryID,
		HostID:       a.cfg.HostID,
		TypeIdx:      aq.typeIdx,
		Tuples:       c.tuples[:c.n],
		MatchedTotal: matched,
		SampledTotal: sampled,
		QueueDrops:   drops,
		EffRate:      stepRate(aq.baseRate, c.step),
		BudgetShed:   aq.shed,
		CPUNs:        aq.cpuNs.Load(),
		ShipBytes:    aq.bytesShipped, // through the previous batch
		ReplayEpoch:  c.epoch,
		ReplayDone:   c.done,
	}
	// The batch's wire size for budget accounting, frame header included:
	// computed, not measured — the sink does the one encode a tuple gets.
	size := transport.TupleBatchWireSize(&batch) + 4
	if err := a.cfg.Sink.SendBatch(batch); err != nil {
		a.sinkErrors.Add(1)
		if !errors.Is(err, ErrUndelivered) {
			a.sinkErrTuples.Add(uint64(len(batch.Tuples)))
		}
		return err
	}
	// Snapshot the raw counters (not the rate-1 substituted mᵢ, which
	// derives from matched and is covered by its comparison).
	aq.announce = false
	aq.lastMatched = matched
	aq.lastSampled = sampledRaw
	aq.lastDrops = drops
	aq.lastSentNanos = a.cfg.Clock().UnixNano()
	aq.bytesShipped += uint64(size)
	a.shipBytes.Add(uint64(size))
	a.shipped.Add(uint64(len(batch.Tuples)))
	if batch.ReplayEpoch != 0 {
		a.replayShipped.Add(uint64(len(batch.Tuples)))
		a.replayShipBytes.Add(uint64(size))
	}
	return nil
}

// governTick runs one budget-enforcement interval over the active
// queries: per-query cost deltas since the last tick, the host-aggregate
// check, and whatever ladder actions the trackers decide. Shipper-only.
// Cycles where the configured clock has not advanced are skipped, which
// keeps enforcement deterministic when tests drive a virtual clock (the
// real flush ticker still fires, but sees zero elapsed time).
func (a *Agent) governTick(actives []*activeQuery) {
	now := a.cfg.Clock().UnixNano()
	elapsed := now - a.lastGovNanos
	if elapsed <= 0 {
		return
	}
	a.lastGovNanos = now
	hostU := governor.Usage{ElapsedNs: elapsed}
	usages := a.govScratch[:0]
	for _, aq := range actives {
		cpu := aq.cpuNs.Load()
		bytes := aq.bytesShipped
		u := governor.Usage{CPUNs: cpu - aq.lastCPUNs, Bytes: bytes - aq.lastBytes, ElapsedNs: elapsed}
		aq.lastCPUNs = cpu
		aq.lastBytes = bytes
		usages = append(usages, u)
		hostU.CPUNs += u.CPUNs
		hostU.Bytes += u.Bytes
	}
	a.govScratch = usages
	hostOver := governor.Load(hostU, a.cfg.Governor.HostBudget) > 1
	for i, aq := range actives {
		if aq.shed {
			continue
		}
		eb := governor.EffectiveBudget(aq.budget, a.cfg.Governor.HostBudget, hostOver, len(actives))
		switch aq.tracker.Evaluate(usages[i], eb) {
		case governor.ActionDownsample:
			a.govDownsamples.Inc()
			a.applyRate(aq)
		case governor.ActionRecover:
			a.govRecovers.Inc()
			a.applyRate(aq)
		case governor.ActionShed:
			a.govSheds.Inc()
			a.mu.Lock()
			aq.shed = true
			a.rebuildLocked()
			a.mu.Unlock()
			aq.stopped.Store(true) // replay shipping is sheddable too
			aq.announce = true
			a.salvage(aq)
		}
	}
}

// applyRate re-arms a query's live sampler at base rate × the tracker's
// multiplier, 2^-step, and records the new rate for heartbeats; the
// re-arm leaves the rate-1 fast path for good (lane.arm). The chunk filled
// at the old rate is queued behind the full ones. Shipper-only.
func (a *Agent) applyRate(aq *activeQuery) {
	step := uint8(math.Round(-math.Log2(aq.tracker.Mult())))
	if c := aq.live.arm(step, aq.seed); c != nil {
		a.submit(c)
	}
	aq.step = step
	aq.announce = true
}

// Flush synchronously pushes pending chunks and counters out (test and
// shutdown aid): it asks the shipper for a flush cycle and waits for the
// acknowledgement, so tests flush deterministically instead of sleeping.
func (a *Agent) Flush() {
	ack := make(chan struct{})
	select {
	case a.flushReq <- ack:
		select {
		case <-ack:
		case <-a.done:
		}
	case <-a.done:
	}
}

// Stats snapshots the agent counters.
func (a *Agent) Stats() Stats {
	return Stats{
		Logged:              a.logged.Value(),
		Matched:             a.matched.Value(),
		Shipped:             a.shipped.Value(),
		ShipBytes:           a.shipBytes.Value(),
		QueueDrops:          a.queueDrops.Value(),
		SinkErrors:          a.sinkErrors.Value(),
		SinkErrorTuples:     a.sinkErrTuples.Value(),
		Kept:                uint64(a.keptTuples.Value()),
		GovernorDownsamples: a.govDownsamples.Value(),
		GovernorRecovers:    a.govRecovers.Value(),
		GovernorSheds:       a.govSheds.Value(),
	}
}

// Close stops the shipper after a final flush. The agent must not be used
// afterwards.
func (a *Agent) Close() {
	a.closed.Do(func() {
		close(a.done)
		a.wg.Wait()
	})
}
