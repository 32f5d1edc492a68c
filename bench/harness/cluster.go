package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"scrub/bench/gen"
	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/server"
	"scrub/internal/transport"
)

func init() {
	workloadDefs["cluster-wire"] = func(seed int64) (*prepared, error) {
		in := gen.Cluster(seed)
		return &prepared{
			hash: in.Hash,
			build: func(seconds float64, tr *Tracer) (system, error) {
				return buildCluster(in, seconds, tr)
			},
		}, nil
	}
}

// timedCoordinator is the central.Executor the query server drives: the
// coordinator itself, with Tick timed in a traced run. Embedding keeps the
// shard-fabric surface (QueryEpoch, HandleManifest, HandleHello, Status,
// ShardMap) the server discovers by interface assertion.
type timedCoordinator struct {
	*coord.Coordinator
	tr *Tracer
	// gate is held by every Tick. The server ticks by the wall clock, load
	// or no load, and a tick that closes a window allocates about a
	// window's worth of partials, merge state and rows; the harness takes
	// gate while it reads the live heap, so that the state it reads is the
	// one the measured section left, without a close's garbage on top (one
	// run in eight read 5 or 10 % high that way). Ticks resume afterwards.
	gate   sync.Mutex
	mu     sync.Mutex
	tickNs []int64
}

func (t *timedCoordinator) Tick(nowNanos int64) {
	t.gate.Lock()
	defer t.gate.Unlock()
	if t.tr == nil {
		t.Coordinator.Tick(nowNanos)
		return
	}
	t0 := t.tr.now()
	t.Coordinator.Tick(nowNanos)
	t1 := t.tr.now()
	t.tr.add("coord.tick", t0, t1, -1, uint64(nowNanos))
	t.mu.Lock()
	t.tickNs = append(t.tickNs, t1-t0)
	t.mu.Unlock()
}

// clusterAgent is one application host of cluster-wire: a paced agent
// whose sink is a shard-fabric router with its own manifest connection. One
// generator feeds both agents, so the two cores are the generator's and
// everything else's.
type clusterAgent struct {
	*pacedAgent
	pool     *gen.ClusterPool
	router   *coord.Router
	manifest *transport.Conn

	// Traced run only: written by the agent's shipper goroutine.
	routeNs []float64 // per batch: Router.SendBatch ÷ tuples
	rttUs   []float64 // per manifest round trip
}

// clusterSystem is the whole path on loopback TCP in one process: two
// agents → their routers → two shard nodes, manifests and control through
// the hub to a coordinator-backed query server.
type clusterSystem struct {
	in     *gen.ClusterInput
	tr     *Tracer
	sched  *schedule
	hub    *server.Hub
	srv    *server.Server
	eng    *timedCoordinator
	shards []*transport.Listener
	agents []*clusterAgent
	gen    generator
	cancel context.CancelFunc
	ctlWG  sync.WaitGroup

	warmBursts, measBursts uint64
	queries                []gen.ClusterQuery
	ids                    []uint64

	mu     sync.Mutex
	emits  []emission
	finals map[uint64]transport.QueryStats

	skew, lagMsMax float64 // coordinator Status() at the end of the traced section
}

func buildCluster(in *gen.ClusterInput, seconds float64, tr *Tracer) (s *clusterSystem, err error) {
	s = &clusterSystem{in: in, tr: tr, queries: gen.ClusterQueries(), finals: map[uint64]transport.QueryStats{}}
	s.warmBursts, s.measBursts = sizeBursts(seconds, clusterEventNanos)
	if tr == nil {
		// Only the end-to-end section needs windows emitting from its start;
		// no layer metric is derived from the traced section's lag.
		s.warmBursts = max(s.warmBursts, uint64(clusterMinWarmup)/(burstEvents*clusterEventNanos)+1)
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	registry := cluster.NewRegistry()
	if s.hub, err = server.NewHub(registry, "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.hub.SetLogf(func(string, ...any) {})
	s.eng = &timedCoordinator{Coordinator: coord.NewCoordinator(central.Options{}), tr: tr}
	if s.srv, err = server.New(server.Config{
		Catalog: gen.Catalog(), Registry: registry, Engine: s.eng, Dispatcher: s.hub,
		TickInterval: clusterTickInterval,
	}); err != nil {
		return nil, err
	}
	s.hub.SetServer(s.srv)
	s.eng.OnShardMap(func(m transport.ShardMap) { go s.hub.BroadcastShardMap(m) })
	s.hub.Serve()

	for i := 0; i < clusterShards; i++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, l)
		go coord.NewShardNode(gen.Catalog()).Serve(l)
		if err := s.eng.AddShard(l.Addr()); err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.sched = newSchedule(clusterEventNanos)
	for a := 0; a < gen.ClusterAgents; a++ {
		ca, err := s.newAgent(ctx, a)
		if err != nil {
			return nil, err
		}
		s.agents = append(s.agents, ca)
	}
	if err := waitFor("host registration", 5*time.Second, func() bool { return registry.Len() == gen.ClusterAgents }); err != nil {
		return nil, err
	}

	for qi, q := range s.queries {
		info, err := s.srv.Submit(q.Text, server.Callbacks{Window: s.emitFor(qi), Done: s.done})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		s.ids = append(s.ids, info.ID)
	}
	// Query objects reach the agents over the control plane; events logged
	// before they are installed would never match.
	if err := waitFor("query installation", 5*time.Second, func() bool {
		for _, ca := range s.agents {
			if len(ca.agent.ActiveQueries()) != len(s.queries) {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}
	s.gen = generator{sched: s.sched}
	for _, ca := range s.agents {
		s.gen.agents = append(s.gen.agents, ca.pacedAgent)
	}
	// The queries' spans start at submission; the timetable starts now, at
	// the next instant that ends the measured section clusterEndPhase into
	// a window, so that the live-heap reading always finds the same windows
	// open.
	total := int64(s.warmBursts+s.measBursts) * burstEvents * clusterEventNanos
	origin := time.Now().UnixNano() + int64(time.Millisecond)
	window := int64(clusterWindow)
	origin += ((int64(clusterEndPhase)-(origin+total))%window + window) % window
	s.gen.start(origin, s.warmBursts)
	return s, nil
}

func (s *clusterSystem) newAgent(ctx context.Context, a int) (*clusterAgent, error) {
	hostID := fmt.Sprintf("bench-app-%d", a)
	conn, err := transport.Dial(s.hub.DataAddr(), 3*time.Second)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(transport.DataHello{HostID: hostID}); err != nil {
		conn.Close()
		return nil, err
	}
	ca := &clusterAgent{pool: s.in.Pools[a], manifest: conn}
	manifest := coord.NewManifestClient(conn)
	if s.tr != nil {
		plain := manifest
		manifest = func(m transport.BatchManifest) error {
			t0 := s.tr.now()
			err := plain(m)
			t1 := s.tr.now()
			s.tr.add("coord.manifest", t0, t1, -1, m.QueryID)
			ca.rttUs = append(ca.rttUs, float64(t1-t0)/1e3)
			return err
		}
	}
	ca.router = coord.NewRouter(manifest, nil)
	var sink host.Sink = ca.router
	if s.tr != nil {
		sink = host.SinkFunc(func(b transport.TupleBatch) error {
			t0 := s.tr.now()
			err := ca.router.SendBatch(b)
			t1 := s.tr.now()
			s.tr.add("coord.route", t0, t1, -1, b.QueryID)
			if n := len(b.Tuples); n > 0 {
				ca.routeNs = append(ca.routeNs, float64(t1-t0)/float64(n))
			}
			return err
		})
	}
	ca.pacedAgent = newPacedAgent(s.sched, s.warmBursts, s.measBursts, sink, s.tr)
	ca.stamp = func(dst *event.Event, i uint64) {
		ca.pool.Stamp(dst, a, i, s.sched.originNs, s.sched.eventNanos)
	}
	if ca.agent, err = host.New(host.Config{
		HostID: hostID, Service: "BidServers", DC: "DC1",
		Catalog: gen.Catalog(), Sink: ca.sink(),
		QueueSize: hostQueueSize, BatchSize: clusterBatchSize, FlushInterval: clusterFlushInterval,
	}); err != nil {
		conn.Close()
		return nil, err
	}
	s.ctlWG.Add(1)
	go func() {
		defer s.ctlWG.Done()
		_ = ca.agent.RunControlWith(ctx, s.hub.ControlAddr(), host.ControlOptions{
			OnShardMap:   ca.router.HandleShardMap,
			OnQueryPin:   ca.router.PinQuery,
			OnQueryUnpin: ca.router.UnpinQuery,
		})
	}()
	return ca, nil
}

// emitFor returns query qi's window callback; it runs under the
// coordinator's lock.
func (s *clusterSystem) emitFor(qi int) func(transport.ResultWindow) {
	col := s.queries[qi].CountCol
	return func(rw transport.ResultWindow) {
		e := emissionOf(qi, col, rw, s.sched.now())
		s.mu.Lock()
		s.emits = append(s.emits, e)
		s.mu.Unlock()
	}
}

func (s *clusterSystem) done(d transport.QueryDone) {
	s.mu.Lock()
	s.finals[d.QueryID] = d.Stats
	s.mu.Unlock()
}

func (s *clusterSystem) flushAgents() {
	for _, ca := range s.agents {
		ca.agent.Flush()
	}
}

func (s *clusterSystem) warmup() error {
	s.gen.run(s.warmBursts, nil)
	return nil
}

func (s *clusterSystem) measure() (*measurement, error) {
	m := &measurement{
		callNs: make([]float64, 0, s.measBursts*uint64(len(s.agents))),
		lateMs: make([]float64, 0, s.measBursts),
	}
	m.sec = beginSection()
	s.gen.run(s.measBursts, m)
	// Routed, applied and acknowledged: SendBatch is synchronous through
	// the shard acks and the manifest round trip.
	s.flushAgents()
	m.sec.end()
	m.events = s.measBursts * burstEvents * uint64(len(s.agents))
	m.markAt(s.sched.now(), m.events)
	m.freeze = func() func() {
		s.eng.gate.Lock()
		return s.eng.gate.Unlock
	}

	// A window [_, end) is releasable once an event stamped at or after
	// end + lateness has been logged; its emit lag runs from when the
	// generator was due to issue that event.
	from := s.sched.burstDue(s.warmBursts)
	until := s.sched.burstDue(s.warmBursts + s.measBursts)
	s.mu.Lock()
	for _, e := range s.emits {
		due := s.sched.dueOf(e.end + int64(clusterLateness))
		if due < from || due >= until {
			continue
		}
		m.lags = append(m.lags, lagSample{at: e.wall, ms: float64(e.wall-due) / 1e6})
	}
	s.mu.Unlock()
	if s.tr != nil {
		s.fabricStatus()
	}
	return m, nil
}

// fabricStatus reads the coordinator's operational view while the queries
// still run: how unevenly request-id routing loaded the shards, and the
// worst shard RPC staleness.
func (s *clusterSystem) fabricStatus() {
	st := s.eng.Status()
	var total, most float64
	for _, sh := range st.Shards {
		total += float64(sh.TuplesIn)
		most = max(most, float64(sh.TuplesIn))
		s.lagMsMax = max(s.lagMsMax, float64(sh.LagNanos)/1e6)
	}
	if total > 0 {
		s.skew = most / (total / float64(len(st.Shards)))
	}
}

// check cancels every query (draining the shards through the emit
// callbacks) and verifies conservation end to end: per unsampled query,
// the tuples and count(*) rows over all emitted windows equal what the
// agents logged; for every query the final stats report no drops, and each
// stream's matched = sampled-out + shipped holds at the coordinator.
func (s *clusterSystem) check() (attempted, failed uint64, problems []string) {
	s.flushAgents()
	for _, id := range s.ids {
		if err := s.srv.Cancel(id); err != nil {
			problems = append(problems, err.Error())
		}
	}
	var bids, exclusions uint64
	for _, ca := range s.agents {
		b, e := ca.pool.Counts(s.gen.next * burstEvents)
		bids += b
		exclusions += e
		if st := ca.agent.Stats(); st.QueueDrops != 0 || st.SinkErrors != 0 {
			problems = append(problems, fmt.Sprintf("%s: agent reports drops or sink errors: %+v", ca.agent.ID(), st))
			failed += st.QueueDrops
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for qi, q := range s.queries {
		refTuples, refCount := bids, bids
		if q.Name == "join" {
			refTuples, refCount = bids+exclusions, exclusions
		}
		attempted += refTuples
		st, ok := s.finals[s.ids[qi]]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no final stats", q.Name))
			continue
		}
		failed += st.LateDrops + st.HostDrops
		if st.LateDrops != 0 || st.HostDrops != 0 || st.DegradedWindows != 0 {
			problems = append(problems, fmt.Sprintf("%s: final stats report drops or degraded windows: %+v", q.Name, st))
		}
		if q.Sampled {
			// Windows carry scaled estimates; the sample itself is accounted
			// for above (no drops) and by the agents' own counters.
			continue
		}
		var tuples, count uint64
		for _, e := range s.emits {
			if e.query == qi {
				tuples += e.tuples
				count += e.count
			}
		}
		if tuples != refTuples {
			problems = append(problems, fmt.Sprintf("%s: emitted windows hold %d tuples, agents logged %d matching events", q.Name, tuples, refTuples))
			failed += absDiff(tuples, refTuples)
		}
		if q.CountCol >= 0 && count != refCount {
			problems = append(problems, fmt.Sprintf("%s: count(*) over emitted windows is %d, reference %d", q.Name, count, refCount))
		}
	}
	return attempted, failed, problems
}

func (s *clusterSystem) layers(m *measurement, tr *Tracer, out map[string]Metric) error {
	set := func(name string, v float64) { out[name] = Metric{v, out[name].Unit} }
	paced := make([]*pacedAgent, len(s.agents))
	var routeNs, rttUs []float64
	var captured []transport.TupleBatch
	for i, ca := range s.agents {
		paced[i] = ca.pacedAgent
		routeNs = append(routeNs, ca.routeNs...)
		rttUs = append(rttUs, ca.rttUs...)
		captured = append(captured, ca.captured...)
	}
	hostLayers(paced, out)
	set("coord.route.ns_per_tuple", median(routeNs))
	set("coord.manifest.rtt_us_p50", median(rttUs))
	s.eng.mu.Lock()
	set("coord.tick.ms_p50", median(nanosToMs(s.eng.tickNs)))
	s.eng.mu.Unlock()
	set("coord.shard.skew", s.skew)
	set("coord.shard.lag_ms_max", s.lagMsMax)
	return replayTransport(captured, tr, out)
}

// close tears the deployment down from the edges in: generators are idle,
// so stop the control loops, then the query server (cancelling whatever
// still runs), the agents and their connections, the shard listeners, and
// finally the hub, whose Close waits for every session to end.
func (s *clusterSystem) close() {
	if s.cancel != nil {
		s.cancel()
	}
	s.ctlWG.Wait()
	if s.srv != nil {
		s.srv.Close()
	}
	for _, ca := range s.agents {
		ca.agent.Close()
		ca.router.Close()
		ca.manifest.Close()
	}
	if s.eng != nil {
		s.eng.Close()
	}
	for _, l := range s.shards {
		l.Close()
	}
	if s.hub != nil {
		s.hub.Close()
	}
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
