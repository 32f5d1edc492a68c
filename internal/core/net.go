package core

import (
	"context"
	"fmt"
	"net"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/server"
	"scrub/internal/transport"
)

// NetConfig parametrizes a NetCluster.
type NetConfig struct {
	Catalog *event.Catalog
	Hosts   []HostSpec
	// Agent defaults forwarded to every agent.
	Agent host.Config
	// Central: see LocalConfig.Central.
	Central central.Options
	// Sink is the base option set for every host's data sink (dial
	// timeout). Per-host wrapping is filled in by the assembly. The sink
	// buffers nothing: each agent keeps what it could not deliver, under
	// Agent.QueueSize.
	Sink host.NetSinkOptions
	// Control is the base option set for every agent's control loop
	// (dial timeout, reconnect backoff). The jitter seed is derived per
	// host; the dialer is wrapped per host when WrapConn is set.
	Control host.ControlOptions
	// WrapConn, when non-nil, interposes on every outbound connection a
	// host makes (control and data), keyed by host name — the
	// fault-injection seam. Wire it to chaos.Injector.Wrap.
	WrapConn func(hostName string, nc net.Conn) net.Conn
}

// NetCluster is a full Scrub deployment over real TCP in one process:
// the hub (client/control/data listeners), the query server with
// ScrubCentral, and one agent per host, each with its own control and
// data connections. It exercises exactly the paths a multi-machine
// deployment uses; cmd/scrubcentral and cmd/scrubd split the same pieces
// across processes.
type NetCluster struct {
	Catalog  *event.Catalog
	Registry *cluster.Registry
	Engine   central.Executor
	Server   *server.Server
	Hub      *server.Hub

	agents []*host.Agent
	sinks  []*host.NetSink
	cancel context.CancelFunc
}

// NewNetCluster builds, connects, and waits for every agent to register.
func NewNetCluster(cfg NetConfig) (*NetCluster, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("core: nil catalog")
	}
	// The hub listens on ephemeral loopback ports and logs nothing.
	registry := cluster.NewRegistry()
	hub, err := server.NewHub(registry, "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hub.SetLogf(func(string, ...any) {})
	// One process runs one kernel; n = 1 cannot fail.
	engine, _ := central.NewShardedEngineWith(1, cfg.Central)
	srv, err := server.New(server.Config{
		Catalog:    cfg.Catalog,
		Registry:   registry,
		Engine:     engine,
		Dispatcher: hub,
	})
	if err != nil {
		hub.Close()
		return nil, err
	}
	hub.SetServer(srv)
	hub.Serve()

	nc := &NetCluster{
		Catalog:  cfg.Catalog,
		Registry: registry,
		Engine:   engine,
		Server:   srv,
		Hub:      hub,
	}
	ctx, cancel := context.WithCancel(context.Background())
	nc.cancel = cancel

	for _, h := range cfg.Hosts {
		hostName := h.Name
		sopt := cfg.Sink
		copt := cfg.Control
		if cfg.WrapConn != nil {
			sopt.Wrap = func(raw net.Conn) net.Conn { return cfg.WrapConn(hostName, raw) }
			copt.Dial = func(addr string, timeout time.Duration) (*transport.Conn, error) {
				return transport.DialWith(addr, timeout, func(raw net.Conn) net.Conn {
					return cfg.WrapConn(hostName, raw)
				})
			}
		}
		sink := host.NewNetSinkWith(hub.DataAddr(), hostName, sopt)
		acfg := cfg.Agent
		acfg.HostID = hostName
		acfg.Service = h.Service
		acfg.DC = h.DC
		acfg.Catalog = cfg.Catalog
		acfg.Sink = sink
		agent, err := host.New(acfg)
		if err != nil {
			cancel()
			nc.Close()
			return nil, err
		}
		nc.agents = append(nc.agents, agent)
		nc.sinks = append(nc.sinks, sink)
		go func() { _ = agent.RunControlWith(ctx, hub.ControlAddr(), copt) }()
	}

	// Wait for registrations so queries submitted right away see their
	// targets.
	deadline := time.Now().Add(5 * time.Second)
	for registry.Len() < len(cfg.Hosts) {
		if time.Now().After(deadline) {
			nc.Close()
			return nil, fmt.Errorf("core: only %d/%d hosts registered", registry.Len(), len(cfg.Hosts))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nc, nil
}

// Agent returns the i'th agent (creation order).
func (nc *NetCluster) Agent(i int) *host.Agent { return nc.agents[i] }

// NumAgents returns the agent count.
func (nc *NetCluster) NumAgents() int { return len(nc.agents) }

// Client opens a troubleshooter connection to the cluster.
func (nc *NetCluster) Client() (*server.Client, error) {
	return server.DialClient(nc.Hub.ClientAddr())
}

// Close tears everything down.
func (nc *NetCluster) Close() {
	if nc.cancel != nil {
		nc.cancel()
	}
	if nc.Server != nil {
		nc.Server.Close()
	}
	for _, a := range nc.agents {
		a.Close()
	}
	for _, s := range nc.sinks {
		s.Close()
	}
	if nc.Hub != nil {
		nc.Hub.Close()
	}
}
