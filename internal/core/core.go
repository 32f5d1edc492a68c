// Package core is Scrub's embedding and assembly layer: it wires the host
// agents, ScrubCentral, and the query server into a running system and
// exposes the two things a user touches — the application-side event API
// (define types, log events) and the troubleshooter-side query API
// (submit a query, stream windows).
//
// Two assemblies exist:
//
//   - LocalCluster runs everything in one process with direct calls —
//     the substrate for tests, benchmarks, and the simulator.
//   - NetCluster (net.go) runs them over real TCP in one process — the
//     shape of a production deployment, used by experiment C1 and tests.
//
// Takeover (takeover.go) stands a promoted standby up as the leader on the
// dead leader's addresses, for cmd/scrubcentral and its tests alike.
package core

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/server"
	"scrub/internal/transport"
)

// HostSpec declares one simulated or real application host.
type HostSpec struct {
	Name    string
	Service string
	DC      string
}

// LocalConfig parametrizes a LocalCluster.
type LocalConfig struct {
	Catalog *event.Catalog
	Hosts   []HostSpec
	// Agent forwards host.Config tuning (queue size, batch size, flush
	// interval) to every agent. Its Clock is the deployment's one clock:
	// the query server and, unless Central.Clock is set, central read it
	// too, so a simulation on virtual time runs on it end to end.
	Agent host.Config
	// Central tunes the engine's failure-domain behavior (stream lease
	// TTL, lease clock). Zero value is production defaults.
	Central central.Options
}

// LocalCluster is a complete single-process Scrub deployment: one agent
// per declared host, ScrubCentral, and the query server, connected by
// direct calls.
type LocalCluster struct {
	Catalog  *event.Catalog
	Registry *cluster.Registry
	Engine   central.Executor
	Server   *server.Server

	mu     sync.Mutex
	agents map[string]*host.Agent
	outs   []*server.Egress // one per stream
	closed bool
}

// NewLocalCluster builds and starts the deployment.
func NewLocalCluster(cfg LocalConfig) (*LocalCluster, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("core: nil catalog")
	}
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("core: no hosts")
	}
	if cfg.Central.Clock == nil {
		cfg.Central.Clock = cfg.Agent.Clock
	}
	// One process runs one kernel; n = 1 cannot fail.
	engine, _ := central.NewShardedEngineWith(1, cfg.Central)
	lc := &LocalCluster{
		Catalog:  cfg.Catalog,
		Registry: cluster.NewRegistry(),
		Engine:   engine,
		agents:   make(map[string]*host.Agent),
	}

	sink := host.SinkFunc(func(b transport.TupleBatch) error {
		lc.Engine.HandleBatch(b)
		return nil
	})
	for _, h := range cfg.Hosts {
		if err := lc.Registry.Register(cluster.HostInfo{Name: h.Name, Service: h.Service, DC: h.DC}); err != nil {
			lc.Close()
			return nil, err
		}
		acfg := cfg.Agent
		acfg.HostID = h.Name
		acfg.Service = h.Service
		acfg.DC = h.DC
		acfg.Catalog = cfg.Catalog
		acfg.Sink = sink
		agent, err := host.New(acfg)
		if err != nil {
			lc.Close()
			return nil, err
		}
		lc.agents[h.Name] = agent
	}

	dispatcher := server.DispatcherFunc(func(hostName string, msg transport.Message) error {
		lc.mu.Lock()
		agent := lc.agents[hostName]
		lc.mu.Unlock()
		if agent == nil {
			return fmt.Errorf("core: unknown host %q", hostName)
		}
		switch m := msg.(type) {
		case transport.HostQuery:
			return agent.Start(m)
		case transport.StopQuery:
			agent.Stop(m.QueryID)
			return nil
		default:
			return fmt.Errorf("core: unexpected dispatch %s", transport.Name(msg))
		}
	})

	srv, err := server.New(server.Config{
		Catalog:    cfg.Catalog,
		Registry:   lc.Registry,
		Engine:     lc.Engine,
		Dispatcher: dispatcher,
		Clock:      cfg.Agent.Clock,
	})
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.Server = srv
	return lc, nil
}

// Agent returns the agent embedded in the named host — the handle the
// "application" uses to log events.
func (lc *LocalCluster) Agent(name string) (*host.Agent, bool) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	a, ok := lc.agents[name]
	return a, ok
}

// Agents returns all agents.
func (lc *LocalCluster) Agents() []*host.Agent {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make([]*host.Agent, 0, len(lc.agents))
	for _, a := range lc.agents {
		out = append(out, a)
	}
	return out
}

// Stream is a running query's results, the in-process analogue of
// server.QueryStream. Its windows leave through a server.Egress: one that
// waits 2 s for the reader cuts the stream, which cancels the query and
// closes Windows.
type Stream struct {
	Info    server.QueryInfo
	Windows <-chan transport.ResultWindow

	mu    sync.Mutex
	stats transport.QueryStats
	done  chan struct{}
	cut   atomic.Bool
}

// Final blocks until the query ends, read or not, and returns its
// statistics.
func (s *Stream) Final() transport.QueryStats {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Cut reports whether the stream was cut, its query cancelled.
func (s *Stream) Cut() bool { return s.cut.Load() }

// Query submits query text and streams result windows until the span
// ends or Cancel is called; read Windows from the start.
func (lc *LocalCluster) Query(text string) (*Stream, error) {
	wins := make(chan transport.ResultWindow)
	st := &Stream{Windows: wins, done: make(chan struct{})}
	out := server.NewEgress(func(m transport.Message, deadline time.Time) error {
		wait := time.NewTimer(time.Until(deadline))
		defer wait.Stop()
		select {
		case wins <- m.(transport.ResultWindow):
			return nil
		case <-wait.C:
			return os.ErrDeadlineExceeded
		}
	}, func(err error) {
		close(wins) // behind the last window, or at the cut
		if err != nil {
			st.cut.Store(true)
			st.mu.Lock()
			id := st.Info.ID
			st.mu.Unlock()
			_ = lc.Server.Cancel(id)
		}
	})
	info, err := lc.Server.Submit(text, server.Callbacks{
		Window: func(rw transport.ResultWindow) { out.Queue(rw) },
		Done: func(d transport.QueryDone) {
			st.mu.Lock()
			st.stats = d.Stats
			st.mu.Unlock()
			close(st.done)
			out.Close()
		},
	})
	if err != nil {
		out.Close()
		return nil, err
	}
	st.mu.Lock()
	st.Info = info
	st.mu.Unlock()
	lc.mu.Lock()
	lc.outs = append(lc.outs, out)
	lc.mu.Unlock()
	return st, nil
}

// Cancel ends a running query early.
func (lc *LocalCluster) Cancel(id uint64) error { return lc.Server.Cancel(id) }

// FlushAgents pushes pending host batches through — a convenience for
// tests and simulations that want deterministic delivery points.
func (lc *LocalCluster) FlushAgents() {
	for _, a := range lc.Agents() {
		a.Flush()
	}
}

// Close tears the whole deployment down.
func (lc *LocalCluster) Close() {
	lc.mu.Lock()
	if lc.closed {
		lc.mu.Unlock()
		return
	}
	lc.closed = true
	agents := make([]*host.Agent, 0, len(lc.agents))
	for _, a := range lc.agents {
		agents = append(agents, a)
	}
	outs := lc.outs
	lc.mu.Unlock()
	if lc.Server != nil {
		lc.Server.Close()
	}
	// Every query has ended; each stream delivers what it queued, every
	// window by its deadline.
	for _, out := range outs {
		<-out.Done()
	}
	for _, a := range agents {
		a.Close()
	}
}
