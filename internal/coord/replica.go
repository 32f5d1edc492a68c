package coord

import (
	"sync"
	"time"

	"scrub/internal/transport"
)

// Leader-side control-plane replication.
//
// The replicated log carries exactly the state a takeover needs and
// nothing else: query registrations (wire-form plan text plus the pinned
// shard epoch and replay deadline), query stops, and membership
// transitions. The high-rate manifest/partial flow is deliberately not
// replicated — window state lives on the shards as collectible encoded
// partials, so any merger that knows the registrations can resume the
// merge by re-collecting. That keeps replication at control-plane rate:
// one synchronous append per StartQuery/StopQuery/epoch bump, plus
// heartbeats.
//
// This is Raft's configuration-replication shape without its election
// half: safety against split brain comes from shard-side fencing (a
// promoted standby installs a strictly higher fencing epoch, and shards
// reject collect/stop RPCs below it), not from quorum voting, so a
// single standby — or several, rank-staggered — is a valid deployment.

// defaultHeartbeat is the leader heartbeat interval when
// ReplicationConfig leaves it zero.
const defaultHeartbeat = 250 * time.Millisecond

// repPeer is one standby the leader replicates to. The underlying
// shardClient provides the serialized seq-matched RPC channel and the
// down latch; acked tracks how much of the log the standby has applied.
type repPeer struct {
	sc    *shardClient
	acked uint64
}

// replicator owns the leader's in-memory log and its standby peers. The
// log is never truncated: it holds control-plane transitions only, so
// its size is bounded by query/membership churn, and a late-joining
// standby can always be caught up from index 0.
//
// Lock order: Coordinator.mu may be held when replicator.mu is taken
// (appends fire under the coordinator lock, itself possibly under the
// merger's); replicator.mu may be held when a peer shardClient.mu is
// taken. Never the reverse.
type replicator struct {
	term uint64
	hb   time.Duration

	mu    sync.Mutex
	log   []transport.RepEntry
	peers []*repPeer

	stopCh chan struct{}
	done   chan struct{}
}

func newReplicator(term uint64, hb time.Duration) *replicator {
	if hb <= 0 {
		hb = defaultHeartbeat
	}
	r := &replicator{
		term:   term,
		hb:     hb,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.heartbeatLoop()
	return r
}

// append extends the log and pushes it to every live standby
// synchronously. Replication is best effort: a standby that fails or
// NAKs from a higher term is latched down and skipped from then on —
// the leader never blocks the control plane on a dead peer, and a peer
// with a higher term has promoted, which the shards' fencing already
// protects against.
func (r *replicator) append(entries ...transport.RepEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, entries...)
	r.syncPeersLocked()
}

// addPeer registers a standby and immediately catches it up from log
// index 0.
func (r *replicator) addPeer(sc *shardClient) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &repPeer{sc: sc}
	r.peers = append(r.peers, p)
	r.syncPeerLocked(p)
}

func (r *replicator) syncPeersLocked() {
	for _, p := range r.peers {
		r.syncPeerLocked(p)
	}
}

func (r *replicator) syncPeerLocked(p *repPeer) {
	if p.sc.Down() {
		return
	}
	// Up to two rounds: one send, one retransmission if the standby's
	// applied index regressed below what we believed (restart).
	for attempt := 0; attempt < 2; attempt++ {
		ack, err := p.sc.repAppend(r.term, p.acked, r.log[p.acked:])
		if err != nil {
			return // client latched down
		}
		if ack.Ok {
			p.acked = ack.Index
			return
		}
		if ack.Term > r.term {
			// The standby promoted past us: this leader is deposed. Stop
			// replicating to it; the shards' fencing rejects our RPCs.
			p.sc.close()
			return
		}
		if ack.Index < p.acked {
			p.acked = ack.Index
			continue
		}
		return
	}
}

// heartbeatLoop keeps standbys' failover timers fed and doubles as the
// catch-up path for peers that missed an append.
func (r *replicator) heartbeatLoop() {
	defer close(r.done)
	t := time.NewTicker(r.hb)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.C:
			r.mu.Lock()
			r.syncPeersLocked()
			r.mu.Unlock()
		}
	}
}

func (r *replicator) stop() {
	close(r.stopCh)
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.peers {
		p.sc.close()
	}
}

// ReplicationConfig configures a leader's standby replication.
type ReplicationConfig struct {
	// Term is the leader's fencing term (and epoch stamped into shard
	// RPCs); 0 means 1. A promoted standby that adds new standbys keeps
	// its own, higher term.
	Term uint64
	// Heartbeat is the standby keepalive interval; 0 means 250ms. It
	// must be well below the standbys' failover timeout.
	Heartbeat time.Duration
}

// Fence reports the coordinator's fencing epoch (0 when standalone).
func (c *Coordinator) Fence() uint64 { return c.fence.Load() }

// StartReplication turns this coordinator into a replicating leader:
// its fencing epoch becomes cfg.Term and every subsequent registration,
// stop and membership change is appended to the replicated log. Call it
// at boot, before standbys are added with AddStandby; current state is
// snapshotted into the log so later joiners recover it.
func (c *Coordinator) StartReplication(cfg ReplicationConfig) {
	term := cfg.Term
	if term == 0 {
		term = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rep != nil {
		return
	}
	if c.fence.Load() < term {
		c.fence.Store(term)
	}
	c.rep = newReplicator(c.fence.Load(), cfg.Heartbeat)
	// Snapshot current state so replication can start at any point in
	// the coordinator's life, not only on an empty one.
	m := c.shardMapLocked()
	c.rep.append(transport.RepEntry{
		Kind: transport.RepMembership, MapEpoch: m.Epoch, Addrs: m.Addrs,
	})
	for _, e := range c.regs {
		c.rep.append(e)
	}
}

// AddStandby dials a standby's replication address and catches it up.
func (c *Coordinator) AddStandby(addr string) error {
	conn, err := transport.Dial(addr, rpcTimeout)
	if err != nil {
		return err
	}
	c.AddStandbyConn(conn, addr)
	return nil
}

// AddStandbyConn registers a standby over an established connection
// (pipes, tests). StartReplication must have been called.
func (c *Coordinator) AddStandbyConn(conn *transport.Conn, addr string) {
	c.mu.Lock()
	rep := c.rep
	c.mu.Unlock()
	if rep == nil {
		conn.Close()
		return
	}
	rep.addPeer(newShardClient(conn, addr, nil))
}
