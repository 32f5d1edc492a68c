// Package server implements the Scrub query server: the coordinator that
// parses and validates queries, resolves their target-host sets, fans
// query objects out to host agents and ScrubCentral, streams results back
// to troubleshooters, and enforces query spans (paper §4, Figure 3).
//
//scrub:longlived
package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/sampling"
	"scrub/internal/transport"
)

// Dispatcher pushes control messages (HostQuery / StopQuery) to host
// agents. The TCP hub implements it for distributed deployments; the
// in-process testbed calls agents directly.
type Dispatcher interface {
	SendToHost(host string, msg transport.Message) error
}

// DispatcherFunc adapts a function to Dispatcher.
type DispatcherFunc func(host string, msg transport.Message) error

// SendToHost implements Dispatcher.
func (f DispatcherFunc) SendToHost(host string, msg transport.Message) error { return f(host, msg) }

// shardFabric is the optional surface a distributed coordinator engine
// (internal/coord) adds on top of central.Executor. The server detects it
// by interface assertion so single-process deployments need no stubs.
type shardFabric interface {
	QueryEpoch(id uint64) (uint32, bool)
	HandleManifest(m transport.BatchManifest)
	HandleHello(h transport.ShardHello) error
	Status() transport.ShardStatusList
	ShardMap() transport.ShardMap
}

// Callbacks deliver a query's output to its submitter. Window and Done
// must be non-nil; they may be called from internal goroutines and must
// not block for long.
type Callbacks struct {
	Window func(transport.ResultWindow)
	Done   func(transport.QueryDone)
}

// QueryInfo describes an accepted query.
type QueryInfo struct {
	ID           uint64
	Columns      []string
	Hosts        []string // activated hosts (after host sampling)
	NumHosts     int      // hosts matching the target spec
	SampledHosts int
	Start        time.Time
	End          time.Time
}

// Config parametrizes a Server.
type Config struct {
	Catalog  *event.Catalog
	Registry *cluster.Registry
	// Engine is the central execution backend: an in-process cluster
	// (central.Engine is the one-shard case) or a coordinator (internal/coord).
	Engine     central.Executor
	Dispatcher Dispatcher
	// TickInterval drives window closing by wall clock. Default 200ms.
	TickInterval time.Duration
	// Clock substitutes time.Now for tests.
	Clock func() time.Time
}

type serverQuery struct {
	info       QueryInfo
	text       string
	plan       *ql.Plan
	cb         Callbacks
	timer      *time.Timer
	done       bool
	shardEpoch uint32 // shard-map epoch the query is pinned to; 0 single-process
	// adopted marks a query resumed from a dead leader's replicated log
	// (Adopt): its host set is discovered incrementally as hosts register,
	// not fixed at submission.
	adopted bool
}

// Server coordinates query execution. Create with New, stop with Close.
type Server struct {
	cfg Config

	mu      sync.Mutex
	nextID  uint64
	queries map[uint64]*serverQuery

	stopTick chan struct{}
	wg       sync.WaitGroup
	closed   sync.Once
}

// New creates a server and starts its window ticker.
func New(cfg Config) (*Server, error) {
	if cfg.Catalog == nil || cfg.Registry == nil || cfg.Engine == nil || cfg.Dispatcher == nil {
		return nil, fmt.Errorf("server: Catalog, Registry, Engine and Dispatcher are all required")
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 200 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Server{
		cfg:      cfg,
		queries:  make(map[uint64]*serverQuery),
		stopTick: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.tickLoop()
	return s, nil
}

func (s *Server) tickLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.TickInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.cfg.Engine.Tick(s.cfg.Clock().UnixNano())
		case <-s.stopTick:
			return
		}
	}
}

// Submit runs the paper's Figure-3 submission flow: parse, validate,
// create query objects, activate hosts and ScrubCentral, and schedule the
// span expiry. Results stream through cb until Done.
func (s *Server) Submit(text string, cb Callbacks) (QueryInfo, error) {
	if cb.Window == nil || cb.Done == nil {
		return QueryInfo{}, fmt.Errorf("server: Window and Done callbacks are required")
	}
	q, err := ql.Parse(text)
	if err != nil {
		return QueryInfo{}, err
	}
	plan, err := ql.Analyze(q, s.cfg.Catalog)
	if err != nil {
		return QueryInfo{}, err
	}

	// Resolve the target-host set.
	hosts := s.cfg.Registry.Resolve(plan.Target)
	if len(hosts) == 0 {
		return QueryInfo{}, fmt.Errorf("server: target %s matches no hosts", plan.Target)
	}

	s.mu.Lock()
	s.nextID++
	qid := s.nextID
	s.mu.Unlock()

	// Host sampling: deterministic in the query id.
	names := cluster.Names(hosts)
	chosen := sampling.SelectHosts(names, plan.SampleHosts, qid)

	// Resolve the span to absolute times.
	now := s.cfg.Clock()
	start := now
	switch {
	case !plan.StartAt.IsZero():
		start = plan.StartAt
	case plan.StartIn > 0:
		start = now.Add(plan.StartIn)
	}
	end := start.Add(plan.Span)
	if !end.After(now) {
		return QueryInfo{}, fmt.Errorf("server: query span [%s, %s] is entirely in the past", start.Format(time.RFC3339), end.Format(time.RFC3339))
	}

	info := QueryInfo{
		ID:           qid,
		Columns:      columnLabels(plan),
		Hosts:        chosen,
		NumHosts:     len(hosts),
		SampledHosts: len(chosen),
		Start:        start,
		End:          end,
	}

	// Install the central query object first so no tuples race past it.
	cp := central.FromPlan(plan, qid, start.UnixNano(), end.UnixNano(), len(hosts), len(chosen))
	cp.Text = text // shard nodes re-analyze the text against their own catalogs
	emit := func(rw transport.ResultWindow) { cb.Window(rw) }
	if err := s.cfg.Engine.StartQuery(cp, emit); err != nil {
		return QueryInfo{}, err
	}

	// A distributed coordinator pins the query to the shard-map epoch
	// current at registration; hosts route its batches by that epoch.
	var shardEpoch uint32
	if f, ok := s.cfg.Engine.(shardFabric); ok {
		shardEpoch, _ = f.QueryEpoch(qid)
	}

	sq := &serverQuery{info: info, text: text, plan: plan, cb: cb, shardEpoch: shardEpoch}
	s.mu.Lock()
	s.queries[qid] = sq
	s.mu.Unlock()

	// Fan the host query objects out: every chosen host gets one query
	// object per FROM type. Hosts that do not produce a type simply never
	// match events for it. Dispatch failures degrade coverage, not the
	// query.
	for _, hq := range plan.HostQueries(qid, start.UnixNano(), end.UnixNano()) {
		hq.ShardEpoch = shardEpoch
		for _, h := range chosen {
			_ = s.cfg.Dispatcher.SendToHost(h, hq)
		}
	}

	// Span expiry. The timer handle is written under the lock because the
	// callback (or a concurrent Cancel) may reach finish immediately.
	t := time.AfterFunc(end.Sub(now), func() { s.finish(qid) })
	s.mu.Lock()
	if sq.done {
		// Cancelled between fan-out and timer creation.
		t.Stop()
	} else {
		sq.timer = t
	}
	s.mu.Unlock()
	return info, nil
}

func columnLabels(p *ql.Plan) []string {
	out := make([]string, len(p.Select))
	for i, item := range p.Select {
		out[i] = item.Label
	}
	return out
}

// Adopt registers a query that is already running in the engine — a
// promoted coordinator resumed it from the dead leader's replicated
// control-plane log — so span expiry, listing, cancellation and host
// resync treat it like any accepted query. The engine side is not
// started here: the promotion installed it with its own emit hook, so
// cb.Window is optional and cb.Done fires at span expiry or Cancel.
//
// The host set starts empty on purpose. At takeover the fleet has not
// re-registered with this server, so the target resolves to nothing;
// ResyncHost re-resolves it as each host registers (host sampling is
// deterministic in the query id, so the same hosts are chosen the dead
// leader chose), and finish stops exactly the hosts that showed up.
func (s *Server) Adopt(qid uint64, text string, start, end time.Time, shardEpoch uint32, cb Callbacks) (QueryInfo, error) {
	if cb.Done == nil {
		return QueryInfo{}, fmt.Errorf("server: Done callback is required")
	}
	q, err := ql.Parse(text)
	if err != nil {
		return QueryInfo{}, err
	}
	plan, err := ql.Analyze(q, s.cfg.Catalog)
	if err != nil {
		return QueryInfo{}, err
	}
	info := QueryInfo{ID: qid, Columns: columnLabels(plan), Start: start, End: end}
	sq := &serverQuery{info: info, text: text, plan: plan, cb: cb, shardEpoch: shardEpoch, adopted: true}
	s.mu.Lock()
	if _, dup := s.queries[qid]; dup {
		s.mu.Unlock()
		return QueryInfo{}, fmt.Errorf("server: query %d already registered", qid)
	}
	s.queries[qid] = sq
	// Future submissions must not collide with adopted ids.
	if qid > s.nextID {
		s.nextID = qid
	}
	s.mu.Unlock()

	// Span expiry; a span that lapsed during the failover gap finishes
	// immediately (still off the caller's goroutine).
	d := end.Sub(s.cfg.Clock())
	if d < 0 {
		d = 0
	}
	t := time.AfterFunc(d, func() { s.finish(qid) })
	s.mu.Lock()
	if sq.done {
		t.Stop()
	} else {
		sq.timer = t
	}
	s.mu.Unlock()
	return info, nil
}

// finish tears a query down everywhere and reports Done exactly once.
func (s *Server) finish(qid uint64) {
	s.mu.Lock()
	sq, ok := s.queries[qid]
	if !ok || sq.done {
		s.mu.Unlock()
		return
	}
	sq.done = true
	delete(s.queries, qid)
	timer := sq.timer
	s.mu.Unlock()

	if timer != nil {
		timer.Stop()
	}
	for _, h := range sq.info.Hosts {
		_ = s.cfg.Dispatcher.SendToHost(h, transport.StopQuery{QueryID: qid})
	}
	stats, _ := s.cfg.Engine.StopQuery(qid)
	sq.cb.Done(transport.QueryDone{QueryID: qid, Stats: stats})
}

// Cancel ends a query before its span expires. Unknown ids are an error.
func (s *Server) Cancel(qid uint64) error {
	s.mu.Lock()
	_, ok := s.queries[qid]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: unknown query %d", qid)
	}
	s.finish(qid)
	return nil
}

// Active returns the ids of running queries.
func (s *Server) Active() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.queries))
	for id := range s.queries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResyncHost re-dispatches the query objects of every active query that
// targets the named host. The hub calls it when a host (re)registers, so
// an application restart mid-query resumes contributing instead of going
// dark until the span expires.
func (s *Server) ResyncHost(hostName string) int {
	s.mu.Lock()
	var targeted, adopted []*serverQuery
	for _, sq := range s.queries {
		listed := false
		for _, h := range sq.info.Hosts {
			if h == hostName {
				listed = true
				break
			}
		}
		switch {
		case listed:
			targeted = append(targeted, sq)
		case sq.adopted:
			adopted = append(adopted, sq)
		}
	}
	s.mu.Unlock()

	// Adopted queries discover their hosts here: the dead leader's chosen
	// set was not replicated, but host sampling is deterministic in the
	// query id, so re-resolving the target against the registry this host
	// just joined reselects the same set the leader activated.
	for _, sq := range adopted {
		hosts := s.cfg.Registry.Resolve(sq.plan.Target)
		chosen := sampling.SelectHosts(cluster.Names(hosts), sq.plan.SampleHosts, sq.info.ID)
		for _, h := range chosen {
			if h != hostName {
				continue
			}
			s.mu.Lock()
			if !sq.done {
				sq.info.Hosts = append(sq.info.Hosts, hostName)
				sq.info.NumHosts = len(hosts)
				sq.info.SampledHosts = len(sq.info.Hosts)
				targeted = append(targeted, sq)
			}
			s.mu.Unlock()
			break
		}
	}

	n := 0
	for _, sq := range targeted {
		for _, hq := range sq.plan.HostQueries(sq.info.ID, sq.info.Start.UnixNano(), sq.info.End.UnixNano()) {
			hq.ShardEpoch = sq.shardEpoch
			// A resync deliberately omits ReplayNanos: the restarted host's
			// record stream is empty (or stale), and a second replay of a
			// query already past its start would duplicate history central
			// has folded in.
			hq.ReplayNanos = 0
			if s.cfg.Dispatcher.SendToHost(hostName, hq) == nil {
				n++
			}
		}
	}
	return n
}

// List returns summaries of the active queries, sorted by id — the
// operational view a troubleshooter or dashboard polls.
func (s *Server) List() []transport.QuerySummary {
	s.mu.Lock()
	sqs := make([]*serverQuery, 0, len(s.queries))
	for _, sq := range s.queries {
		sqs = append(sqs, sq)
	}
	s.mu.Unlock()
	out := make([]transport.QuerySummary, 0, len(sqs))
	for _, sq := range sqs {
		stats, _ := s.cfg.Engine.Stats(sq.info.ID)
		out = append(out, transport.QuerySummary{
			QueryID:  sq.info.ID,
			Text:     sq.text,
			Columns:  sq.info.Columns,
			Hosts:    uint32(sq.info.SampledHosts),
			EndNanos: sq.info.End.UnixNano(),
			Stats:    stats,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].QueryID < out[j].QueryID })
	return out
}

// HandleBatch forwards a host's tuple batch to ScrubCentral. Exposed so
// transport fronts and in-process testbeds share one path.
func (s *Server) HandleBatch(b transport.TupleBatch) {
	s.cfg.Engine.HandleBatch(b)
}

// HandleManifest forwards a host router's batch manifest to the shard
// fabric. A single-process engine has no manifest plane; stray manifests
// are dropped, matching how unknown-query batches are.
func (s *Server) HandleManifest(m transport.BatchManifest) {
	if f, ok := s.cfg.Engine.(shardFabric); ok {
		f.HandleManifest(m)
	}
}

// HandleShardHello enrolls a shard process announcing itself on the data
// plane. Errors (including "not a shard-fabric deployment") are for the
// hub's log; the shard retries by reconnecting.
func (s *Server) HandleShardHello(m transport.ShardHello) error {
	if f, ok := s.cfg.Engine.(shardFabric); ok {
		return f.HandleHello(m)
	}
	return fmt.Errorf("server: not a shard-fabric deployment")
}

// ShardStatus reports the shard fabric's operational view; empty in a
// single-process deployment.
func (s *Server) ShardStatus() transport.ShardStatusList {
	if f, ok := s.cfg.Engine.(shardFabric); ok {
		return f.Status()
	}
	return transport.ShardStatusList{}
}

// CurrentShardMap returns the fabric's current membership, if any — the
// hub pushes it to hosts on registration.
func (s *Server) CurrentShardMap() (transport.ShardMap, bool) {
	if f, ok := s.cfg.Engine.(shardFabric); ok {
		m := f.ShardMap()
		return m, m.Epoch > 0
	}
	return transport.ShardMap{}, false
}

// Close cancels every active query and stops the ticker.
func (s *Server) Close() {
	for _, id := range s.Active() {
		_ = s.Cancel(id)
	}
	s.closed.Do(func() { close(s.stopTick) })
	s.wg.Wait()
}
