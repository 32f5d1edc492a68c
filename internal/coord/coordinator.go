package coord

import (
	"fmt"
	"sync"
	"sync/atomic"

	"scrub/internal/central"
	"scrub/internal/transport"
)

// Options configures a Coordinator. The zero value matches the central
// engines' defaults, which matters: the differential oracle only holds if
// lease TTLs and clocks agree across executors.
type Options = central.Options

// Coordinator is the control plane of a distributed ScrubCentral. It owns
// shard membership and its epochs, pins every query to the shard list
// current at its start, replicates registrations to standbys, and hands
// the merging itself to a central.Merger that reaches the pinned shards
// by RPC.
//
// It implements central.Executor, so the query server can drive a
// coordinator wherever it would drive an in-process engine.
type Coordinator struct {
	met  *coordMetrics
	core *central.Merger

	// fence is this coordinator's fencing epoch, stamped by its shard
	// clients into every start/collect/stop RPC and carried on shard-map
	// pushes. Standalone deployments run at 0; a leader with standbys runs
	// at its replication term, and a promoted standby takes over at a
	// strictly higher term, so shards reject the deposed leader's RPCs.
	fence atomic.Uint64

	// Lock order: the merger's lock may be held when mu is taken (the
	// install/stop hooks run under it); never the reverse.
	mu         sync.Mutex
	members    []*shardClient
	epoch      uint32
	rebalances uint64
	// regs holds every running query's replicated registration — the
	// shard map it pinned included — kept in step with the merger by the
	// hooks.
	regs map[uint64]transport.RepEntry
	// mergesSeen is how much of the merger's merge count has been added
	// to scrub_coord_merges_total.
	mergesSeen uint64
	onMap      func(transport.ShardMap)
	rep        *replicator // nil unless StartReplication was called
}

var _ central.Executor = (*Coordinator)(nil)

// NewCoordinator creates a coordinator with no shards. Register shards
// with AddShard/AddShardConn/HandleHello before starting queries.
func NewCoordinator(opt Options) *Coordinator {
	return &Coordinator{
		met:  newCoordMetrics(opt.Metrics),
		core: central.NewMerger(opt),
		regs: make(map[uint64]transport.RepEntry),
	}
}

// AddShard dials a shard's data address and adds it to the membership,
// bumping the shard-map epoch.
func (c *Coordinator) AddShard(addr string) error {
	sc, err := dialShard(addr, &c.fence)
	if err != nil {
		return err
	}
	c.addClient(sc)
	return nil
}

// AddShardConn adds a shard over an established connection (pipes,
// tests), bumping the shard-map epoch.
func (c *Coordinator) AddShardConn(conn *transport.Conn, addr string) {
	c.addClient(newShardClient(conn, addr, &c.fence))
}

// HandleHello admits a shard that announced itself on the data plane.
func (c *Coordinator) HandleHello(h transport.ShardHello) error {
	return c.AddShard(h.DataAddr)
}

func (c *Coordinator) addClient(sc *shardClient) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.members = append(c.members, sc)
	c.bumpEpochLocked()
	if g := c.met.shardLag(sc.addr); g != nil {
		g.Set(sc.lagNanos())
	}
}

// bumpEpochLocked advances the shard-map epoch after a membership change
// and pushes the new map to whoever subscribed with OnShardMap.
func (c *Coordinator) bumpEpochLocked() {
	c.epoch++
	c.rebalances++
	if c.met != nil {
		c.met.rebalances.Inc()
	}
	c.met.setMembership(len(c.members), c.epoch)
	if c.onMap != nil {
		c.onMap(c.shardMapLocked())
	}
	c.replicateLocked()
}

func (c *Coordinator) shardMapLocked() transport.ShardMap {
	m := transport.ShardMap{Epoch: c.epoch, Fence: c.fence.Load()}
	for _, sc := range c.members {
		m.Addrs = append(m.Addrs, sc.addr)
	}
	return m
}

// ShardMap returns the current epoch-numbered membership.
func (c *Coordinator) ShardMap() transport.ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shardMapLocked()
}

// OnShardMap registers the push hook for membership changes and fires it
// once with the current map. The hook runs with the coordinator locked:
// it must hand the map off (enqueue, send) without calling back in. No
// pin depends on it: a query carries its own map (PinnedMap) to hosts.
func (c *Coordinator) OnShardMap(fn func(transport.ShardMap)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onMap = fn
	if fn != nil {
		fn(c.shardMapLocked())
	}
}

// PinnedMap reports the shard map a running query is pinned to — its
// epoch and the shards it started on, as its registration records them —
// under the current fence. The server sends it to a host ahead of the
// query's pin.
func (c *Coordinator) PinnedMap(id uint64) (transport.ShardMap, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.regs[id]
	return transport.ShardMap{Epoch: e.PinEpoch, Fence: c.fence.Load(), Addrs: e.PinAddrs}, ok
}

// removeDownLocked drops dead shards from the membership (their pinned
// queries keep their clients and degrade; only new queries see the
// shrunken map) and bumps the epoch if anything changed.
//
// The dead client is NOT closed here: it is already latched down (down
// latches exactly when failLocked closed the connection, and the latch is
// never cleared), and queries pinned to it still hold it. Their
// collect/stop calls keep skipping it on the latch and take the degrade
// path — drop caches folded, Degraded flagged — rather than
// dereferencing a client whose contract was torn up underneath them.
func (c *Coordinator) removeDownLocked() {
	kept := c.members[:0]
	changed := false
	for _, sc := range c.members {
		if sc.Down() {
			changed = true
			c.met.dropShard(sc.addr)
			continue
		}
		kept = append(kept, sc)
	}
	c.members = kept
	if changed {
		c.bumpEpochLocked()
	}
}

// StartQuery implements central.Executor: compile, pin the current shard
// list and epoch, then install the query on every pinned shard (rolling
// back on failure). The plan must carry its source text — shards
// re-analyze it against their own catalogs.
func (c *Coordinator) StartQuery(p central.Plan, emit central.EmitFunc) error {
	if p.Text == "" {
		return fmt.Errorf("coord: plan for query %d has no source text (required to distribute to shards)", p.QueryID)
	}
	return c.install(p, emit, nil)
}

// install starts a query over the current members, pinned to the current
// epoch — or, when a promoted standby re-adopts a replicated registration
// (central.Install.Resume), resumes it over the shard list, epoch and
// replay deadline that registration carries: the member at each pinned
// address, or a client latched down where the membership lists the
// address no more. Membership changes never touch a running query: it
// keeps the shard list it started with.
//
// The registration is recorded and replicated under the merger's lock, at
// the instant the query goes live, so the pushes a start and the stop
// that follows it cause reach a standby in that order.
func (c *Coordinator) install(p central.Plan, emit central.EmitFunc, resume *transport.RepEntry) error {
	qr, err := central.CompileQuery(p)
	if err != nil {
		return err
	}
	var in central.Install
	c.mu.Lock()
	pinEpoch := c.epoch
	shards := make([]central.ShardClient, len(c.members))
	addrs := make([]string, len(c.members))
	for i, sc := range c.members {
		shards[i], addrs[i] = sc, sc.addr
	}
	if resume != nil {
		pinEpoch, addrs = resume.PinEpoch, resume.PinAddrs
		in = central.Install{Resume: true, ReplayDeadline: resume.ReplayDeadline}
		shards = make([]central.ShardClient, len(addrs))
		for i, addr := range addrs {
			shards[i] = c.memberLocked(addr)
		}
	}
	c.mu.Unlock()
	if len(shards) == 0 {
		return fmt.Errorf("coord: no shards joined")
	}
	in.Installed = func(replayDeadline int64) {
		e := transport.RepEntry{
			Start:          ShardStartFromPlan(qr.Plan()),
			PinEpoch:       pinEpoch,
			PinAddrs:       addrs,
			ReplayDeadline: replayDeadline,
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		c.regs[e.Start.QueryID] = e
		c.replicateLocked()
	}
	return c.core.Start(qr, emit, shards, in)
}

// memberLocked returns the member at addr, or a client latched down when
// the membership does not list addr: a pinned shard that left is a dead
// one to the query.
func (c *Coordinator) memberLocked(addr string) *shardClient {
	for _, sc := range c.members {
		if sc.addr == addr {
			return sc
		}
	}
	return newShardClient(nil, addr, &c.fence)
}

// HandleManifest folds the manifest of a batch a host-side router already
// applied to the shards.
func (c *Coordinator) HandleManifest(m transport.BatchManifest) {
	c.observed(c.core.Observe(m), m.RawTuples)
}

// HandleBatch implements central.Executor for hosts that predate shard
// maps: the coordinator routes the whole batch itself, then processes the
// resulting manifest as if a host-side router had sent it.
func (c *Coordinator) HandleBatch(b transport.TupleBatch) {
	c.observed(c.core.Ingest(b), uint64(len(b.Tuples)))
}

// observed books one manifest a running query absorbed.
func (c *Coordinator) observed(absorbed bool, tuples uint64) {
	if absorbed && c.met != nil {
		c.met.manifests.Inc()
		c.met.tuples.Add(tuples)
	}
}

// Tick implements central.Executor: sweep dead shards out of the
// membership, then let the merger expire leases and close windows.
func (c *Coordinator) Tick(nowNanos int64) {
	c.mu.Lock()
	c.removeDownLocked()
	c.mu.Unlock()
	c.core.Tick(nowNanos)
	if c.met == nil {
		return
	}
	merges := c.core.Merges()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met.merges.Add(merges - c.mergesSeen)
	c.mergesSeen = merges
	for _, sc := range c.members {
		if g := c.met.shardLag(sc.addr); g != nil {
			g.Set(sc.lagNanos())
		}
	}
}

// StopQuery implements central.Executor. The stop is replicated under the
// merger's lock, like the start it undoes.
func (c *Coordinator) StopQuery(id uint64) (transport.QueryStats, bool) {
	return c.core.Stop(id, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.regs, id)
		c.replicateLocked()
	})
}

// Stats implements central.Executor.
func (c *Coordinator) Stats(id uint64) (transport.QueryStats, bool) { return c.core.Stats(id) }

// Status reports the fabric's operational view for scrubql -stats: the
// epoch, merge and rebalance totals, and one row per member shard.
func (c *Coordinator) Status() transport.ShardStatusList {
	evicted := c.core.EvictedStreams()
	c.mu.Lock()
	defer c.mu.Unlock()
	sl := transport.ShardStatusList{
		Epoch:          c.epoch,
		Merges:         c.core.Merges(),
		Rebalances:     c.rebalances,
		EvictedStreams: evicted,
	}
	for i, sc := range c.members {
		row := transport.ShardStatus{
			Index:    uint32(i),
			Addr:     sc.addr,
			Down:     sc.Down(),
			LagNanos: sc.lagNanos(),
		}
		if !row.Down {
			if sr, err := sc.stats(0); err == nil {
				row.ActiveQueries = sr.ActiveQueries
				row.TuplesIn = sr.TuplesIn
				row.LagNanos = sc.lagNanos()
			} else {
				row.Down = true
			}
		}
		if g := c.met.shardLag(sc.addr); g != nil {
			g.Set(row.LagNanos)
		}
		sl.Shards = append(sl.Shards, row)
	}
	return sl
}

// Close tears down every shard connection and stops replication to
// standbys. Queries are not drained. Closing the members covers the
// clients running queries are pinned to: a client leaves the membership
// only once it is down, which is when its connection was closed.
func (c *Coordinator) Close() {
	c.mu.Lock()
	rep := c.rep
	c.rep = nil
	for _, sc := range c.members {
		sc.close()
	}
	c.mu.Unlock()
	if rep != nil {
		rep.stop()
	}
}
