package coord

import (
	"sort"
	"sync"
	"time"

	"scrub/internal/transport"
)

// Leader-side control-plane replication.
//
// What is replicated is exactly the state a takeover needs and nothing
// else: the membership and the running queries' registrations (wire-form
// plan text plus the pinned shard map and replay deadline). The
// high-rate manifest/partial flow is deliberately not replicated —
// window state lives on the shards as collectible encoded partials, so
// any merger that knows the registrations can resume the merge by
// re-collecting. That keeps replication at control-plane rate: one
// synchronous push of the whole state per StartQuery/StopQuery/epoch
// bump, plus heartbeats. The state is O(running queries), so a push
// costs what is running, not what has ever run.
//
// This is Raft's configuration-replication shape without its election
// half: safety against split brain with the dead leader comes from
// shard-side fencing (a promoted standby installs a strictly higher
// fencing epoch, and shards reject collect/stop RPCs below it), not from
// quorum voting, so a single standby is a valid deployment. Fencing does
// not order several standbys, which promote to the same epoch: they are
// rank-staggered, and the first to promote replicates to the others (the
// state names them, RepAppend.Standbys), whose timers its heartbeats feed.

// defaultHeartbeat is the leader heartbeat interval when
// ReplicationConfig leaves it zero.
const defaultHeartbeat = 250 * time.Millisecond

// replicator pushes the leader's state to its standby peers. Each peer's
// shardClient provides the serialized seq-matched RPC channel and the
// down latch. A peer that fails one push is latched down and never
// written to again, so no peer can fall behind and need catching up: a
// live peer holds the state of the last push.
//
// Lock order: Coordinator.mu may be held when replicator.mu is taken
// (pushes fire under the coordinator lock, itself possibly under the
// merger's); replicator.mu may be held when a peer shardClient.mu is
// taken. Never the reverse.
type replicator struct {
	term uint64
	hb   time.Duration

	mu    sync.Mutex
	peers []*shardClient

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

// push sends m — the state, or a heartbeat — to every live standby
// synchronously.
func (r *replicator) push(m transport.RepAppend) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pushLocked(m)
}

// pushLocked sends m to every live standby; a state names them all.
func (r *replicator) pushLocked(m transport.RepAppend) {
	if !m.Beat {
		m.Standbys = nil
		for _, p := range r.peers {
			if !p.Down() {
				m.Standbys = append(m.Standbys, p.addr)
			}
		}
	}
	for _, p := range r.peers {
		r.sendLocked(p, m)
	}
}

// addPeer registers a standby and pushes st, the state as it is now, to
// every live standby: the new one gets the state, the others learn of it.
func (r *replicator) addPeer(p *shardClient, st transport.RepAppend) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peers = append(r.peers, p)
	r.pushLocked(st)
}

// sendLocked is best effort: a standby that fails is latched down by its
// client, and one that NAKs has promoted or seen a higher term — this
// leader is deposed to it, and the shards' fencing already protects
// against it — so it is closed. The leader never blocks the control plane
// on a dead peer.
func (r *replicator) sendLocked(p *shardClient, m transport.RepAppend) {
	if p.Down() {
		return
	}
	m.Term = r.term
	if ack, err := p.repAppend(m); err == nil && !ack.Ok {
		p.close()
	}
}

// heartbeatLoop keeps standbys' failover timers fed.
func (r *replicator) heartbeatLoop() {
	defer close(r.done)
	t := time.NewTicker(r.hb)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.C:
			r.push(transport.RepAppend{Beat: true})
		}
	}
}

func (r *replicator) stop() {
	close(r.stopCh)
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.peers {
		p.close()
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

// StartReplication turns this coordinator into a replicating leader:
// its fencing epoch becomes cfg.Term and every subsequent registration,
// stop and membership change pushes the state to the standbys added with
// AddStandby, each of which is sent the state when it is added.
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
}

// replicateLocked pushes the state to the standbys after a change; a
// no-op unless StartReplication was called.
func (c *Coordinator) replicateLocked() {
	if c.rep != nil {
		c.rep.push(c.stateLocked())
	}
}

// stateLocked is the control-plane state a takeover needs: the
// membership and the running queries' registrations in query-id order.
func (c *Coordinator) stateLocked() transport.RepAppend {
	m := c.shardMapLocked()
	st := transport.RepAppend{MapEpoch: m.Epoch, Addrs: m.Addrs, Queries: make([]transport.RepEntry, 0, len(c.regs))}
	for _, e := range c.regs {
		st.Queries = append(st.Queries, e)
	}
	sort.Slice(st.Queries, func(i, j int) bool { return st.Queries[i].Start.QueryID < st.Queries[j].Start.QueryID })
	return st
}

// AddStandby dials a standby's replication address and sends it the
// state.
func (c *Coordinator) AddStandby(addr string) error {
	conn, err := transport.Dial(addr, rpcTimeout)
	if err != nil {
		return err
	}
	c.AddStandbyConn(conn, addr)
	return nil
}

// AddStandbyConn registers a standby over an established connection
// (pipes, tests) and sends it the state. StartReplication must have been
// called.
func (c *Coordinator) AddStandbyConn(conn *transport.Conn, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rep == nil {
		conn.Close()
		return
	}
	c.rep.addPeer(newShardClient(conn, addr, nil), c.stateLocked())
}
