package server

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scrub/internal/cluster"
	"scrub/internal/obs"
	"scrub/internal/transport"
)

// Hub is the TCP front of a Scrub deployment. It owns three listeners:
//
//	client  — troubleshooters submit queries and stream results
//	control — host agents register and receive query objects
//	data    — host agents ship tuple batches for ScrubCentral
//
// The hub implements Dispatcher over the registered control connections.
// Listen stands a hub up with its Server; NewHub, SetLogf, SetServer and
// Serve are its steps, exported for the benchmark harness.
type Hub struct {
	registry *cluster.Registry
	logf     func(format string, args ...any)

	mu    sync.Mutex
	srv   *Server
	hosts map[string]*transport.Conn
	// conns holds every accepted connection, with a client's egress,
	// until its handler returns; Close closes them all, a client's after
	// its egress drains. closing refuses any accepted after that.
	conns   map[*transport.Conn]*Egress
	closing bool

	// dataMet aggregates wire accounting across every accepted data
	// connection; nil without a metrics registry.
	dataMet *transport.ConnMetrics
	// slowCloses counts client connections cut off for falling clientLag
	// behind.
	slowCloses obs.Counter
	// poison (tests) makes every data loop scribble over its receive
	// scratch after each batch the server has handled.
	poison atomic.Bool

	clientL  *transport.Listener
	controlL *transport.Listener
	dataL    *transport.Listener

	wg     sync.WaitGroup
	closed sync.Once
}

// NewHub opens the three listeners. Pass "127.0.0.1:0" addresses for
// ephemeral ports; the *Addr methods report what was bound.
func NewHub(registry *cluster.Registry, clientAddr, controlAddr, dataAddr string) (*Hub, error) {
	h := &Hub{
		registry: registry,
		hosts:    make(map[string]*transport.Conn),
		conns:    make(map[*transport.Conn]*Egress),
		logf:     log.Printf,
	}
	var err error
	if h.clientL, err = transport.Listen(clientAddr); err != nil {
		return nil, err
	}
	if h.controlL, err = transport.Listen(controlAddr); err != nil {
		h.clientL.Close()
		return nil, err
	}
	if h.dataL, err = transport.Listen(dataAddr); err != nil {
		h.clientL.Close()
		h.controlL.Close()
		return nil, err
	}
	return h, nil
}

// SetServer wires the query server in; must happen before Serve.
func (h *Hub) SetServer(s *Server) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.srv = s
}

// setMetrics registers the hub's series with reg; call before Serve. All
// accepted data connections share one aggregate transport series set.
func (h *Hub) setMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.dataMet = transport.NewConnMetrics(reg, obs.L("conn", "data"))
	reg.RegisterCounter("scrub_server_slow_client_closes_total",
		"client connections closed because a message waited 2 s for the client", &h.slowCloses)
}

// SetLogf replaces the hub's logger (tests silence it).
func (h *Hub) SetLogf(f func(string, ...any)) { h.logf = f }

// ClientAddr returns the client listener's address.
func (h *Hub) ClientAddr() string { return h.clientL.Addr() }

// ControlAddr returns the agent-control listener's address.
func (h *Hub) ControlAddr() string { return h.controlL.Addr() }

// DataAddr returns the tuple-data listener's address.
func (h *Hub) DataAddr() string { return h.dataL.Addr() }

// SendToHost implements Dispatcher over registered control connections.
func (h *Hub) SendToHost(host string, msg transport.Message) error {
	h.mu.Lock()
	conn := h.hosts[host]
	h.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("server: host %q has no control connection", host)
	}
	return conn.Send(msg)
}

// Serve starts the accept loops; it returns immediately. Stop with Close.
func (h *Hub) Serve() {
	h.acceptLoop(h.clientL, h.handleClient)
	h.acceptLoop(h.controlL, h.handleControl)
	h.acceptLoop(h.dataL, h.handleData)
}

func (h *Hub) acceptLoop(l *transport.Listener, handle func(*transport.Conn)) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			h.mu.Lock()
			if h.closing {
				h.mu.Unlock()
				conn.Close()
				continue
			}
			h.conns[conn] = nil
			h.mu.Unlock()
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				defer func() {
					conn.Close()
					h.mu.Lock()
					delete(h.conns, conn)
					h.mu.Unlock()
				}()
				handle(conn)
			}()
		}
	}()
}

// handleControl serves one agent's control session.
func (h *Hub) handleControl(conn *transport.Conn) {
	first, err := conn.Recv()
	if err != nil {
		return
	}
	reg, ok := first.(transport.RegisterHost)
	if !ok {
		h.logf("scrub: control connection opened with %s, want RegisterHost", transport.Name(first))
		return
	}
	if err := h.registry.Register(cluster.HostInfo{
		Name: reg.HostID, Service: reg.Service, DC: reg.DC,
		Addr: conn.RemoteAddr().String(),
	}); err != nil {
		h.logf("scrub: register host %q: %v", reg.HostID, err)
		return
	}
	h.mu.Lock()
	if old := h.hosts[reg.HostID]; old != nil {
		old.Close()
	}
	h.hosts[reg.HostID] = conn
	srv := h.srv
	h.mu.Unlock()
	// A (re)connecting host missed any query objects dispatched while it
	// was away; re-sync the ones that target it and it does not run. Each
	// carries its pinned shard map ahead of it.
	if srv != nil {
		srv.ResyncHost(reg.HostID, reg.Queries)
	}
	defer func() {
		h.mu.Lock()
		if h.hosts[reg.HostID] == conn {
			delete(h.hosts, reg.HostID)
			h.registry.Deregister(reg.HostID)
		}
		h.mu.Unlock()
	}()
	// Control is server-push; the read loop only detects disconnects (and
	// logs anything a host sends).
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		h.logf("scrub: unexpected control message %s from %s", transport.Name(msg), reg.HostID)
	}
}

// handleData serves one agent's tuple stream.
//
// The loop receives through one scratch of its own, as a shard's does
// (coord.ShardNode.ServeConn): a batch's tuples and values are borrowed,
// good until the next receive. The executor copies what it keeps — the
// host.Sink contract it honours for an in-process agent's batches, which
// alias the agent's chunk memory — and a manifest carries no tuples.
func (h *Hub) handleData(conn *transport.Conn) {
	var sc transport.RecvScratch
	first, err := conn.RecvBorrowed(&sc)
	if err != nil {
		return
	}
	if _, ok := first.(transport.DataHello); !ok {
		h.logf("scrub: data connection opened with %s, want DataHello", transport.Name(first))
		return
	}
	if h.dataMet != nil {
		conn.SetMetrics(h.dataMet)
	}
	h.mu.Lock()
	srv := h.srv
	h.mu.Unlock()
	var ack transport.ManifestAck // sent by pointer: an ack costs no box
	for {
		msg, err := conn.RecvBorrowed(&sc)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case transport.TupleBatch:
			srv.HandleBatch(m)
			if h.poison.Load() {
				sc.Poison()
			}
		case *transport.BatchManifest:
			// A host router's folded batch report; the ack keeps the
			// router's batch → shard-apply → manifest ordering synchronous.
			srv.HandleManifest(*m)
			ack = transport.ManifestAck{Seq: m.Seq}
			if err := conn.Send(&ack); err != nil {
				return
			}
		case transport.ShardHello:
			if err := srv.HandleShardHello(m); err != nil {
				h.logf("scrub: shard %s join: %v", m.ShardID, err)
			}
		default:
			h.logf("scrub: unexpected data message %s", transport.Name(msg))
			return
		}
	}
}

// BroadcastShardMap pushes a membership epoch to every registered host's
// control connection. Wire it to the coordinator's OnShardMap hook via a
// goroutine — the hook may fire under the coordinator's lock.
func (h *Hub) BroadcastShardMap(m transport.ShardMap) {
	h.mu.Lock()
	conns := make([]*transport.Conn, 0, len(h.hosts))
	for _, c := range h.hosts {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	for _, c := range conns {
		_ = c.Send(m)
	}
}

// handleClient serves one troubleshooter session: queries multiplex over
// the connection by query id, and all it is sent goes through one Egress.
func (h *Hub) handleClient(conn *transport.Conn) {
	out := NewEgress(clientSink(conn), func(err error) {
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			h.slowCloses.Inc()
		case errors.Is(err, transport.ErrUnsendable):
			h.logf("scrub: client %s cut off: %v", conn.RemoteAddr(), err)
		}
		// On a cut, the session's reader sees the close and cancels the
		// client's queries.
		conn.Close()
	})
	h.mu.Lock()
	srv := h.srv
	h.conns[conn] = out
	h.mu.Unlock()
	var mine sync.Map // query ids owned by this connection
	defer func() {
		// Tear down this client's queries when it disconnects; their
		// QueryDone has no reader left.
		out.Close()
		mine.Range(func(k, _ any) bool {
			_ = srv.Cancel(k.(uint64))
			return true
		})
		<-out.Done()
	}()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case transport.SubmitQuery:
			cb := Callbacks{
				Window: func(rw transport.ResultWindow) { out.Queue(rw) },
				Done: func(d transport.QueryDone) {
					mine.Delete(d.QueryID)
					out.Queue(d)
				},
			}
			info, err := srv.Submit(m.Text, cb)
			if err != nil {
				out.Queue(transport.QueryError{Msg: err.Error()})
				continue
			}
			mine.Store(info.ID, true)
			out.Queue(transport.QueryAccepted{
				QueryID:      info.ID,
				Columns:      info.Columns,
				NumHosts:     uint32(info.NumHosts),
				SampledHosts: uint32(info.SampledHosts),
				EndNanos:     info.End.UnixNano(),
			})
		case transport.CancelQuery:
			if err := srv.Cancel(m.QueryID); err != nil {
				out.Queue(transport.QueryError{QueryID: m.QueryID, Msg: err.Error()})
			}
		case transport.ListQueries:
			out.Queue(transport.QueryList{Queries: srv.List()})
		case transport.ShardStatusReq:
			out.Queue(srv.ShardStatus())
		default:
			out.Queue(transport.QueryError{Msg: "unexpected message " + transport.Name(msg)})
		}
	}
}

// clientSink writes to a client connection; only its Egress calls it.
func clientSink(conn *transport.Conn) func(transport.Message, time.Time) error {
	return func(m transport.Message, deadline time.Time) error {
		_ = conn.SetWriteDeadline(deadline)
		return conn.Send(m)
	}
}

// Close shuts the listeners, drains every client's egress (each message
// by its deadline, so a QueryDone queued before Close is written) and
// closes every accepted connection, then waits for their handlers.
func (h *Hub) Close() {
	h.closed.Do(func() {
		h.clientL.Close()
		h.controlL.Close()
		h.dataL.Close()
		h.mu.Lock()
		h.closing = true
		for c, out := range h.conns {
			if out != nil {
				out.Close() // its end closes c
			} else {
				c.Close()
			}
		}
		h.mu.Unlock()
	})
	h.wg.Wait()
}
