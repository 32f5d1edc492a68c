package coord

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/transport"
)

// Standby is the passive half of coordinator high availability: it holds
// the control-plane state the leader last pushed (query registrations and
// shard membership — never window state) and, on leader silence, promotes
// itself into a live Coordinator under a strictly higher fencing term.
//
// Election is deliberately not quorum-based: the shards are the ground
// truth and the fence. A promoted standby's first act is installing its
// higher fencing epoch on every shard, after which the old leader's
// collect/stop RPCs are rejected — so even if both believe they lead,
// only one can drain window state and emit. Fencing does not order two
// standbys: both hold the dead leader's term and would promote to the
// same one, which shards admit from either. Multiple standbys stagger
// their failover timeouts by Rank instead, and the one that promotes
// first replicates to the others at its higher term, so its heartbeats
// keep their timers from firing.
type Standby struct {
	opt StandbyOptions

	mu   sync.Mutex
	term uint64
	// regs and membership are the leader's last pushed state: the running
	// queries' registrations in query-id order, and the shard map.
	regs       []transport.RepEntry
	membership transport.ShardMap
	// standbys are the replication addresses the leader pushed to, this
	// standby's own among them.
	standbys []string
	promoted bool

	// lastContact is the wall time of the last append from a live
	// leader; 0 until the first one, so a standby that never saw a
	// leader does not promote an empty state machine over a booting one.
	lastContact atomic.Int64
}

// StandbyOptions configures a Standby.
type StandbyOptions struct {
	// Central configures the Coordinator built at promotion. Clock and
	// LeaseTTL must match the dead leader's for the differential
	// contracts to keep holding.
	Central Options
	// Catalog re-analyzes replicated query text at promotion.
	Catalog *event.Catalog
	// Dial opens shard and standby connections at promotion; nil uses
	// transport.Dial with the standard RPC timeout.
	Dial func(addr string) (*transport.Conn, error)
	// FailoverTimeout is how long the leader must be silent before
	// AwaitFailover fires; 0 means 2s. The leader heartbeats every 250ms
	// by default, so the default tolerates several missed beats; once
	// promoted, the standby heartbeats every FailoverTimeout/8, the same
	// 250ms at the default.
	FailoverTimeout time.Duration
	// Rank staggers multiple standbys: the effective timeout is
	// FailoverTimeout * (Rank + 1), so rank 0 promotes first.
	Rank int
}

// NewStandby creates a standby with an empty state. Serve (or
// ServeConn) feeds it the leader's replication stream.
func NewStandby(opt StandbyOptions) *Standby {
	if opt.FailoverTimeout <= 0 {
		opt.FailoverTimeout = 2 * time.Second
	}
	return &Standby{opt: opt}
}

// Serve accepts replication connections until the listener closes.
func (s *Standby) Serve(l *transport.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go s.ServeConn(c)
	}
}

// ServeConn answers replication RPCs on one connection until it fails
// or closes.
func (s *Standby) ServeConn(c *transport.Conn) {
	defer c.Close()
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		t, ok := m.(transport.RepAppend)
		if !ok {
			continue
		}
		if err := c.Send(s.handleAppend(t)); err != nil {
			return
		}
	}
}

// handleAppend takes one push: a state replaces what the standby held, a
// heartbeat only feeds the failover timer. A promoted standby — or one
// that has seen a higher term — NAKs with its term so a deposed leader
// learns it is stale.
func (s *Standby) handleAppend(t transport.RepAppend) transport.RepAck {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted || t.Term < s.term {
		return transport.RepAck{Seq: t.Seq, Term: s.term}
	}
	s.term = t.Term
	if !t.Beat {
		s.regs = t.Queries
		s.membership = transport.ShardMap{Epoch: t.MapEpoch, Addrs: t.Addrs}
		s.standbys = t.Standbys
	}
	s.lastContact.Store(time.Now().UnixNano())
	return transport.RepAck{Seq: t.Seq, Term: s.term, Ok: true}
}

// Snapshot reports the standby's replication state (observability,
// tests): the highest term seen and the running queries' ids.
func (s *Standby) Snapshot() (term uint64, queries []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.regs {
		queries = append(queries, e.Start.QueryID)
	}
	return s.term, queries
}

// AwaitFailover blocks until the leader has been silent for the
// configured (rank-staggered) timeout and reports true, or until stop
// closes and reports false. A standby that never heard a leader waits
// indefinitely: it has nothing to take over.
func (s *Standby) AwaitFailover(stop <-chan struct{}) bool {
	timeout := s.opt.FailoverTimeout * time.Duration(s.opt.Rank+1)
	t := time.NewTicker(timeout / 4)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return false
		case <-t.C:
			lc := s.lastContact.Load()
			if lc == 0 {
				continue
			}
			if time.Now().UnixNano()-lc > int64(timeout) {
				return true
			}
		}
	}
}

// Promote assumes leadership: it builds a live Coordinator under term+1
// (strictly above anything the dead leader stamped), reconstructs the
// replicated membership at its replicated epoch and order — order
// matters, it is the rid%n routing order every host pins — fences every
// live shard, stops orphan queries a dead leader installed but never
// committed, and re-installs every replicated registration (idempotent
// shard-side, so absorbed window state survives) or, when it cannot,
// drains it from the shards. Last it replicates, at its term, to the
// standbys the dead leader replicated to: their timers, staggered by
// Rank, would otherwise fire and promote them to this same term. The
// push to this standby itself is NAKed and that peer closed.
//
// It returns the start of every query it resumed, which carries what a
// serving layer needs to adopt it: the text, the span for its expiry
// timer, and the host counts (N, n) the windows are scaled by. emit
// receives the windows of every resumed query; ResultWindow.QueryID
// tells them apart. Every resumed query starts with its Degraded latch
// set: the manifest-gap during failover lost stream/watermark accounting
// this coordinator cannot recover, so its windows are honestly flagged
// rather than silently incomplete.
//
// Promotion is one-shot; a second call errors. Shard or query failures
// do not abort it — at takeover, availability wins — they latch clients
// down and degrade, exactly like a mid-query shard death.
func (s *Standby) Promote(emit central.EmitFunc) (*Coordinator, []transport.ShardStart, error) {
	s.mu.Lock()
	if s.promoted {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("coord: standby already promoted")
	}
	s.promoted = true
	s.term++
	term := s.term
	membership := s.membership
	entries := s.regs
	standbys := s.standbys
	s.mu.Unlock()

	dial := s.opt.Dial
	if dial == nil {
		dial = func(addr string) (*transport.Conn, error) {
			return transport.Dial(addr, rpcTimeout)
		}
	}

	c := NewCoordinator(s.opt.Central)
	c.fence.Store(term)
	c.mu.Lock()
	c.epoch = membership.Epoch
	for _, addr := range membership.Addrs {
		conn, err := dial(addr)
		if err != nil {
			// The shard is unreachable right now: keep its slot (routing
			// order must not shift) but latched down, like a dead shard.
			conn = nil
		}
		c.members = append(c.members, newShardClient(conn, addr, &c.fence))
	}
	c.met.setMembership(len(c.members), c.epoch)
	members := append([]*shardClient(nil), c.members...)
	c.mu.Unlock()

	// Fence first: from here the old leader's collect/stop RPCs are
	// rejected on every shard that answered. The acks also reveal orphan
	// queries — installed by the dead leader but never replicated (it
	// died mid-StartQuery, so the submitter saw an error or will retry);
	// stop them so they do not leak shard memory.
	replicated := make(map[uint64]bool, len(entries))
	for _, e := range entries {
		replicated[e.Start.QueryID] = true
	}
	for _, sc := range members {
		if sc.Down() {
			continue
		}
		ack, err := sc.installFence()
		if err != nil {
			continue // latched down; queries pinned to it degrade
		}
		for _, id := range ack.Queries {
			if !replicated[id] {
				sc.drain(id) // best effort: a failure latches the client down
			}
		}
	}

	// Resume the registrations in ascending query-id order. One that
	// cannot be resumed — its text no longer analyzes (catalog drift) or
	// its install fails — is drained on every live member like an orphan:
	// the fence step spared it as replicated, and no leader will ever
	// collect or stop it.
	var resumed []transport.ShardStart
	for _, e := range entries {
		st := e.Start
		plan, err := PlanFromShardStart(st, s.opt.Catalog)
		if err == nil && c.install(plan, emit, &e) == nil {
			resumed = append(resumed, st)
			continue
		}
		for _, sc := range members {
			if !sc.Down() {
				sc.drain(st.QueryID) // best effort, as for an orphan
			}
		}
	}

	c.StartReplication(ReplicationConfig{Term: term, Heartbeat: s.opt.FailoverTimeout / 8})
	for _, addr := range standbys {
		if conn, err := dial(addr); err == nil {
			c.AddStandbyConn(conn, addr)
		}
	}
	return c, resumed, nil
}
