package host

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"scrub/internal/obs"
	"scrub/internal/transport"
)

// ErrUndelivered marks a batch a sink handed to nobody: it failed before
// any receiver could apply it, so sending it again cannot count it twice.
// A sink wraps it into such a failure (errors.Is finds it); the agent then
// keeps the batch and redelivers it ahead of newer data (Agent.ship). Any
// other sink error loses the batch's tuples, and the agent counts them as
// sink-error tuples.
var ErrUndelivered = errors.New("host: batch undelivered")

// NetSinkOptions tunes a NetSink.
type NetSinkOptions struct {
	// DialTimeout bounds each dial attempt. Default 3s.
	DialTimeout time.Duration
	// Wrap, when non-nil, interposes on the raw data connection — the
	// fault-injection seam (internal/chaos).
	Wrap func(net.Conn) net.Conn
	// Metrics, when non-nil, registers the sink's series (reconnects,
	// per-connection transport accounting) labeled host=<hostID>,
	// conn="data".
	Metrics *obs.Registry
}

// NetSink ships tuple batches to ScrubCentral over TCP. It dials lazily,
// sends a DataHello, and on any send error drops the connection and
// redials on the next batch. It holds no batch: a dial, hello or send
// failure is returned wrapping ErrUndelivered, and the agent keeps the
// batch for redelivery.
type NetSink struct {
	addr   string
	hostID string
	opt    NetSinkOptions

	mu   sync.Mutex
	conn *transport.Conn

	// Registered series; all nil when no registry was configured.
	reconnects *obs.Counter
	connMet    *transport.ConnMetrics
	dialed     bool // a first dial happened; later dials are reconnects
}

// NewNetSink creates a sink for the given ScrubCentral data address with
// default options.
func NewNetSink(addr, hostID string) *NetSink {
	return NewNetSinkWith(addr, hostID, NetSinkOptions{})
}

// NewNetSinkWith creates a sink with explicit options.
func NewNetSinkWith(addr, hostID string, opt NetSinkOptions) *NetSink {
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 3 * time.Second
	}
	s := &NetSink{addr: addr, hostID: hostID, opt: opt}
	if reg := opt.Metrics; reg != nil {
		hl := obs.L("host", hostID)
		s.reconnects = reg.Counter("scrub_host_data_reconnects_total", "data-connection dials after the first", hl)
		s.connMet = transport.NewConnMetrics(reg, hl, obs.L("conn", "data"))
	}
	return s
}

// SendBatch implements Sink. A failure leaves no connection behind, so
// the next batch redials; it wraps ErrUndelivered.
func (s *NetSink) SendBatch(b transport.TupleBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureConnLocked(); err != nil {
		return fmt.Errorf("%w: %w", ErrUndelivered, err)
	}
	if err := s.conn.Send(b); err != nil {
		s.conn.Close()
		s.conn = nil
		return fmt.Errorf("%w: %w", ErrUndelivered, err)
	}
	return nil
}

func (s *NetSink) ensureConnLocked() error {
	if s.conn != nil {
		return nil
	}
	if s.dialed && s.reconnects != nil {
		s.reconnects.Inc()
	}
	s.dialed = true
	conn, err := transport.DialWith(s.addr, s.opt.DialTimeout, s.opt.Wrap)
	if err != nil {
		return err
	}
	if s.connMet != nil {
		conn.SetMetrics(s.connMet)
	}
	if err := conn.Send(transport.DataHello{HostID: s.hostID}); err != nil {
		conn.Close()
		return err
	}
	s.conn = conn
	return nil
}

// Close drops the data connection.
func (s *NetSink) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// ControlOptions tunes the agent's control-plane connection loop.
type ControlOptions struct {
	// DialTimeout bounds each dial attempt. Default 3s.
	DialTimeout time.Duration
	// BaseBackoff and MaxBackoff shape the reconnect schedule: each
	// attempt sleeps a uniformly random duration in (0, cap] where cap
	// doubles from BaseBackoff up to MaxBackoff (full jitter, so a fleet
	// of hosts doesn't reconnect in lockstep after a server restart).
	// Defaults 250ms and 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed fixes the jitter RNG for reproducible runs; 0 derives one from
	// the host id.
	Seed int64
	// Dial substitutes the control-connection dialer (tests, chaos).
	Dial func(addr string, timeout time.Duration) (*transport.Conn, error)
	// Metrics, when non-nil, counts control reconnect attempts
	// (scrub_host_control_reconnects_total, labeled host=<id>).
	Metrics *obs.Registry
	// OnShardMap, when non-nil, receives the shard maps a distributed
	// ScrubCentral sends, each ahead of the query that pins it. Wire it to
	// a coord.Router's HandleShardMap so the host can split batches across
	// shard processes.
	OnShardMap func(transport.ShardMap)
	// OnQueryPin is told each query's shard-epoch pin before the query
	// starts (so no batch ships unrouted); OnQueryUnpin fires after a
	// query stops. Wire to Router.PinQuery / Router.UnpinQuery.
	OnQueryPin   func(queryID uint64, epoch uint32)
	OnQueryUnpin func(queryID uint64)
}

func (o *ControlOptions) fillDefaults(hostID string) {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 250 * time.Millisecond
	}
	if o.MaxBackoff < o.BaseBackoff {
		o.MaxBackoff = 5 * time.Second
	}
	if o.Seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(hostID))
		o.Seed = int64(h.Sum64())
	}
	if o.Dial == nil {
		o.Dial = transport.Dial
	}
}

// RunControlWith connects the agent to the query server's control port,
// registers the host with the queries it already runs (they survive a
// disconnect, so the server sends only what the host lacks), and applies
// pushed query objects until the context ends. It reconnects with
// full-jitter exponential backoff on failures, so a server restart
// neither requires an application restart nor gets a synchronized
// reconnect stampede from the whole fleet.
func (a *Agent) RunControlWith(ctx context.Context, serverAddr string, opt ControlOptions) error {
	opt.fillDefaults(a.cfg.HostID)
	var reconnects *obs.Counter
	if opt.Metrics != nil {
		reconnects = opt.Metrics.Counter("scrub_host_control_reconnects_total",
			"control-connection dials after the first", obs.L("host", a.cfg.HostID))
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	ceil := opt.BaseBackoff
	first := true
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !first && reconnects != nil {
			reconnects.Inc()
		}
		first = false
		err := a.controlSession(ctx, serverAddr, &opt)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_ = err // session errors only affect the retry cadence
		sleep := time.Duration(1 + rng.Int63n(int64(ceil)))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
		if ceil *= 2; ceil > opt.MaxBackoff {
			ceil = opt.MaxBackoff
		}
	}
}

func (a *Agent) controlSession(ctx context.Context, serverAddr string, opt *ControlOptions) error {
	conn, err := opt.Dial(serverAddr, opt.DialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(transport.RegisterHost{
		HostID:  a.cfg.HostID,
		Service: a.cfg.Service,
		DC:      a.cfg.DC,
		Queries: a.ActiveQueries(),
	}); err != nil {
		return err
	}
	// Unblock Recv when the context ends.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case transport.HostQuery:
			// Pin the routing epoch first: replay shipping may start
			// pushing batches the moment the query object applies.
			if opt.OnQueryPin != nil {
				opt.OnQueryPin(m.QueryID, m.ShardEpoch)
			}
			// A rejected query object is reported by doing nothing: the
			// server sees no data from this host. Catalog skew is logged
			// via the error return path of Start in embedded setups.
			_ = a.Start(m)
		case transport.StopQuery:
			a.Stop(m.QueryID)
			if opt.OnQueryUnpin != nil {
				opt.OnQueryUnpin(m.QueryID)
			}
		case transport.ShardMap:
			if opt.OnShardMap != nil {
				opt.OnShardMap(m)
			}
		default:
			return fmt.Errorf("host: unexpected control message %s", transport.Name(msg))
		}
	}
}
