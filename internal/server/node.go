package server

import (
	"scrub/internal/cluster"
	"scrub/internal/obs"
)

// Addrs are a node's client, control and data addresses; "127.0.0.1:0"
// binds an ephemeral port.
type Addrs struct{ Client, Control, Data string }

// Node is one ScrubCentral query node: the Hub, the Server it dispatches
// for, and the registry of the hosts registered on the hub.
type Node struct {
	Hub      *Hub
	Server   *Server
	Registry *cluster.Registry
}

// Listen binds the hub's listeners on addrs, builds the Server over cfg
// (Listen supplies its Registry and Dispatcher), registers the hub's
// series on met (nil: none) and serves. logf receives the hub's log lines.
// before, when non-nil, runs on the server ahead of the first connection
// the hub serves.
func Listen(addrs Addrs, cfg Config, met *obs.Registry, logf func(string, ...any), before func(*Server)) (*Node, error) {
	cfg.Registry = cluster.NewRegistry()
	hub, err := NewHub(cfg.Registry, addrs.Client, addrs.Control, addrs.Data)
	if err != nil {
		return nil, err
	}
	hub.SetLogf(logf)
	hub.setMetrics(met)
	cfg.Dispatcher = hub
	srv, err := New(cfg)
	if err != nil {
		hub.Close()
		return nil, err
	}
	hub.SetServer(srv)
	if before != nil {
		before(srv)
	}
	hub.Serve()
	return &Node{Hub: hub, Server: srv, Registry: cfg.Registry}, nil
}

// Addrs reports the addresses the node's listeners bound.
func (n *Node) Addrs() Addrs {
	return Addrs{n.Hub.ClientAddr(), n.Hub.ControlAddr(), n.Hub.DataAddr()}
}

// Close closes the server, which cancels its queries, then the hub.
func (n *Node) Close() {
	n.Server.Close()
	n.Hub.Close()
}
