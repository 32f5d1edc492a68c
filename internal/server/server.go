// Package server implements the Scrub query server: the coordinator that
// parses and validates queries, resolves their target-host sets, fans
// query objects out to host agents and ScrubCentral, streams results back
// to troubleshooters, and enforces query spans (paper §4, Figure 3).
//
//scrub:longlived
package server

import (
	"fmt"
	"math"
	"slices"
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
	PinnedMap(id uint64) (transport.ShardMap, bool)
	HandleManifest(m transport.BatchManifest)
	HandleHello(h transport.ShardHello) error
	Status() transport.ShardStatusList
}

// Callbacks deliver a query's output to its submitter. Window and Done
// must be non-nil and must not block: Window is the engine's EmitFunc,
// called with the merger's lock held, and Done runs on the goroutine that
// ended the query. Queue what they deliver on an Egress.
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
	info  QueryInfo
	text  string
	plan  *ql.Plan
	cb    Callbacks
	timer *time.Timer
	done  bool
}

// Server coordinates query execution. Create with New, stop with Close.
type Server struct {
	cfg Config

	// incarnation is the high half of every id this server numbers, its
	// start time in Unix milliseconds mod 2³², so no id a host still runs
	// for a server that is gone names a new query; nextID is the low half.
	incarnation uint64

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
		cfg:         cfg,
		incarnation: uint64(uint32(cfg.Clock().UnixMilli())) << 32,
		queries:     make(map[uint64]*serverQuery),
		stopTick:    make(chan struct{}),
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
	plan, err := s.analyze(text)
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
	qid := s.incarnation | s.nextID
	s.mu.Unlock()

	// Host sampling: deterministic in the id's sequence number.
	names := cluster.Names(hosts)
	chosen := sampling.SelectHosts(names, plan.SampleHosts, uint64(uint32(qid)))

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

	// Install the central query object first so no tuples race past it.
	cp := central.FromPlan(plan, qid, start.UnixNano(), end.UnixNano(), len(hosts), len(chosen))
	cp.Text = text // shard nodes re-analyze the text against their own catalogs
	if err := s.cfg.Engine.StartQuery(cp, cb.Window); err != nil {
		return QueryInfo{}, err
	}
	return s.admit(text, plan, QueryInfo{
		ID:           qid,
		Hosts:        chosen,
		NumHosts:     len(hosts),
		SampledHosts: len(chosen),
		Start:        start,
		End:          end,
	}, cb)
}

// Adopt registers a query that is already running in the engine — a
// promoted coordinator resumed it from the dead leader's replicated
// control-plane state — so span expiry, listing, cancellation and host
// resync treat it like any accepted query. info carries what was
// replicated: the id, the span, and the N and n the engine scales by.
// The engine side is not started here: the promotion installed it with
// its own emit hook, so cb.Window is optional and cb.Done fires at span
// expiry or Cancel.
//
// The host list starts empty: the dead leader's chosen set was not
// replicated. ResyncHost lists each host that re-registers running the
// query, so finish stops exactly the hosts that run it.
func (s *Server) Adopt(text string, info QueryInfo, cb Callbacks) (QueryInfo, error) {
	if cb.Done == nil {
		return QueryInfo{}, fmt.Errorf("server: Done callback is required")
	}
	plan, err := s.analyze(text)
	if err != nil {
		return QueryInfo{}, err
	}
	info.Hosts = nil
	return s.admit(text, plan, info, cb)
}

func (s *Server) analyze(text string) (*ql.Plan, error) {
	q, err := ql.Parse(text)
	if err != nil {
		return nil, err
	}
	return ql.Analyze(q, s.cfg.Catalog)
}

// admit lists an accepted query, sends it to the hosts info names, and
// arms its span expiry; a span that lapsed during a failover gap finishes
// at once (still off the caller's goroutine).
func (s *Server) admit(text string, plan *ql.Plan, info QueryInfo, cb Callbacks) (QueryInfo, error) {
	qid := info.ID
	info.Columns = ql.Labels(plan.Select)
	sq := &serverQuery{info: info, text: text, plan: plan, cb: cb}
	s.mu.Lock()
	if _, dup := s.queries[qid]; dup {
		s.mu.Unlock()
		return QueryInfo{}, fmt.Errorf("server: query %d already registered", qid)
	}
	s.queries[qid] = sq
	s.mu.Unlock()

	// Fan the query out to every chosen host. Dispatch failures degrade
	// coverage, not the query.
	for _, h := range info.Hosts {
		s.dispatch(h, sq, true)
	}

	// The timer handle is written under the lock because the callback (or
	// a concurrent Cancel) may reach finish immediately.
	t := time.AfterFunc(max(info.End.Sub(s.cfg.Clock()), 0), func() { s.finish(qid) })
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

// ResyncHost reconciles a host that (re)registers, reporting the queries
// it runs, with the active queries: one that lists the host and is not
// among them is sent again, and one the host runs without being listed
// lists it (an adopted query learns its hosts this way), so finish stops
// it there. A reported id the server does not hold, of another
// incarnation, is a query of a server that is gone: the host is sent its
// StopQuery, so it neither ships under an id no server owns nor keeps
// paying for it. The hub calls ResyncHost on every registration, so an
// application restart mid-query resumes contributing instead of going
// dark until the span expires, and a control blip re-sends nothing. It
// reports how many query objects were sent.
func (s *Server) ResyncHost(hostName string, running []uint64) int {
	s.mu.Lock()
	var missing []*serverQuery
	for id, sq := range s.queries {
		listed := slices.Contains(sq.info.Hosts, hostName)
		runs := slices.Contains(running, id)
		switch {
		case listed && !runs:
			missing = append(missing, sq)
		case runs && !listed:
			// A fresh array: Submit's caller holds the old one.
			sq.info.Hosts = append(slices.Clip(sq.info.Hosts), hostName)
		}
	}
	var stale []uint64
	for _, id := range running {
		if _, held := s.queries[id]; !held && id&^math.MaxUint32 != s.incarnation {
			stale = append(stale, id)
		}
	}
	s.mu.Unlock()

	for _, id := range stale {
		_ = s.cfg.Dispatcher.SendToHost(hostName, transport.StopQuery{QueryID: id})
	}
	// A resync does not replay: the restarted host's record stream is
	// empty (or stale), and a second replay of a query already past its
	// start would duplicate history central has folded in.
	n := 0
	for _, sq := range missing {
		n += s.dispatch(hostName, sq, false)
	}
	return n
}

// dispatch sends one query to one host over its ordered control
// connection: on a shard fabric the shard map the query pinned first, so
// the host can resolve the pin, then one query object per FROM type,
// stamped with that map's epoch. Hosts that do not produce a type simply
// never match events for it. ReplayNanos rides only when replay is set.
// It reports how many query objects were sent.
func (s *Server) dispatch(host string, sq *serverQuery, replay bool) int {
	var pinned transport.ShardMap
	if f, ok := s.cfg.Engine.(shardFabric); ok {
		if m, ok := f.PinnedMap(sq.info.ID); ok {
			pinned = m
			_ = s.cfg.Dispatcher.SendToHost(host, m)
		}
	}
	n := 0
	for _, hq := range sq.plan.HostQueries(sq.info.ID, sq.info.Start.UnixNano(), sq.info.End.UnixNano()) {
		hq.ShardEpoch = pinned.Epoch
		if !replay {
			hq.ReplayNanos = 0
		}
		if s.cfg.Dispatcher.SendToHost(host, hq) == nil {
			n++
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
// hub's log; the shard is not told, and joins again only if restarted.
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

// Close cancels every active query and stops the ticker.
func (s *Server) Close() {
	for _, id := range s.Active() {
		_ = s.Cancel(id)
	}
	s.closed.Do(func() { close(s.stopTick) })
	s.wg.Wait()
}
