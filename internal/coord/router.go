package coord

import (
	"fmt"
	"sync"

	"scrub/internal/central"
	"scrub/internal/host"
	"scrub/internal/transport"
)

// ManifestFunc delivers one routed batch's manifest to the coordinator.
// It must be synchronous: the router only calls it after every shard ack
// for the batch arrived, and the coordinator relies on that ordering
// (shard state for a batch is applied before its manifest is processed).
// A manifest the call fails to deliver is lost with its drop counts —
// LateDelta, OverflowDelta and RouteDrops: SendBatch returns the error,
// the agent charges the batch to its sink-error tuples, and no later
// manifest counts it again.
type ManifestFunc func(transport.BatchManifest) error

// NewManifestClient wraps a connection to the coordinator's data plane
// into a ManifestFunc doing synchronous BatchManifest → ManifestAck
// round-trips. Safe for concurrent use.
func NewManifestClient(conn *transport.Conn) ManifestFunc {
	mc := newShardClient(conn, "", nil)
	mc.peer = "coordinator"
	return mc.manifest
}

// Router is the host-side half of the shard fabric: a host.Sink that
// splits every tuple batch across the shards of the query's pinned
// epoch by request-id modulo shard count, collects the synchronous
// shard acks, and reports the folded manifest to the coordinator.
//
// Tuples their shard does not apply (dead shard, send failure, a shard
// that does not run the query) are the manifest's RouteDrops, and what
// the shards dropped of the rest its LateDelta and OverflowDelta: facts
// about that batch, which the router reports and keeps no tally of. The
// router learns a query's shard map from the query itself: the server
// sends the pinned map ahead of the pin on the host's control connection.
type Router struct {
	manifest ManifestFunc
	// fallback receives whole batches for queries with no epoch pin
	// (ShardEpoch 0: a single-process central). Nil means such batches
	// error out — a shard-fabric-only deployment.
	fallback func(transport.TupleBatch) error

	mu      sync.Mutex
	maps    map[uint32][]string // epoch -> shard addresses
	pins    map[uint64]uint32   // query -> pinned epoch
	clients map[string]*shardClient
	// relisted: addresses a map listed after their client was dialed. A
	// down client there is dialed again — the coordinator lists only
	// shards it reached, maybe a fresh process where a dead one stood.
	relisted map[string]bool
	newest   uint32 // highest epoch of any installed map
	// fence is the highest coordinator fencing epoch seen on a ShardMap
	// push; pushes below it come from a deposed leader and are ignored.
	fence uint64

	// scratch holds *routeScratch: SendBatch may run concurrently (one
	// shipper per query), so each call takes one for its duration.
	scratch sync.Pool
}

// routeScratch is what one SendBatch splits a batch in, reused from batch
// to batch instead of reallocated.
type routeScratch struct {
	central.RouteScratch
	clients []central.ShardClient
}

// NewRouter creates a router reporting manifests through manifest.
// fallback (optional) handles batches for unpinned queries.
func NewRouter(manifest ManifestFunc, fallback func(transport.TupleBatch) error) *Router {
	return &Router{
		manifest: manifest,
		fallback: fallback,
		maps:     make(map[uint32][]string),
		pins:     make(map[uint64]uint32),
		clients:  make(map[string]*shardClient),
		relisted: make(map[string]bool),
		scratch:  sync.Pool{New: func() any { return new(routeScratch) }},
	}
}

// SetMap installs one epoch's shard membership (from a ShardMap push).
// Old epochs stay resolvable: queries pinned to them outlive the change.
func (r *Router) SetMap(epoch uint32, addrs []string) {
	if epoch == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maps[epoch] = append([]string(nil), addrs...)
	r.newest = max(r.newest, epoch)
	for _, addr := range addrs {
		if _, ok := r.clients[addr]; ok {
			r.relisted[addr] = true
		}
	}
}

// HandleShardMap is SetMap for a received push message, with fencing: a
// push whose Fence is below the highest seen is a deposed leader trying
// to redirect routing and is dropped. Fences only ratchet up, so pushes
// from the current leader (same fence) keep applying.
func (r *Router) HandleShardMap(m transport.ShardMap) {
	r.mu.Lock()
	if m.Fence < r.fence {
		r.mu.Unlock()
		return
	}
	r.fence = m.Fence
	r.mu.Unlock()
	r.SetMap(m.Epoch, m.Addrs)
}

// PinQuery pins a query's routing to a shard-map epoch (from
// HostQuery.ShardEpoch). Epoch 0 means unpinned: the fallback sink
// handles the query's batches whole.
func (r *Router) PinQuery(id uint64, epoch uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch == 0 {
		delete(r.pins, id)
		return
	}
	r.pins[id] = epoch
}

// UnpinQuery forgets a stopped query's pin.
func (r *Router) UnpinQuery(id uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pins, id)
}

// AddShardConn installs an established connection (pipes, tests) as the
// client for addr, instead of dialing on first use.
func (r *Router) AddShardConn(addr string, conn *transport.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clients[addr] = newShardClient(conn, addr, nil)
}

// dial connects to a shard that has no client, or a down one a map
// relisted, and installs the client unless a concurrent SendBatch got
// there first. A shard that cannot be reached gets a client latched
// down — re-dial policy belongs to membership changes, not the data path.
func (r *Router) dial(addr string) *shardClient {
	sc, err := dialShard(addr, nil)
	if err != nil {
		sc = newShardClient(nil, addr, nil)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.clients[addr]; ok && !cur.Down() {
		sc.close()
		return cur
	}
	r.clients[addr] = sc
	delete(r.relisted, addr)
	return sc
}

// Close tears down every shard connection.
func (r *Router) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sc := range r.clients {
		sc.close()
	}
}

// SendBatch implements host.Sink: split by request id over the pinned
// epoch's shards, apply synchronously, fold the acks
// (central.RouteToShards), report the manifest.
func (r *Router) SendBatch(b transport.TupleBatch) error {
	sc := r.scratch.Get().(*routeScratch)
	defer r.scratch.Put(sc)
	sc.clients = sc.clients[:0]
	undialed := false
	// One critical section resolves everything the fan-out needs.
	r.mu.Lock()
	epoch, pinned := r.pins[b.QueryID]
	addrs := r.maps[epoch]
	for _, addr := range addrs {
		if c, ok := r.clients[addr]; ok && !(c.Down() && r.relisted[addr]) {
			sc.clients = append(sc.clients, c)
		} else {
			sc.clients = append(sc.clients, nil)
			undialed = true
		}
	}
	ahead := epoch > r.newest // a pin above every map: its push is on its way
	r.mu.Unlock()
	if !pinned {
		if r.fallback != nil {
			return r.fallback(b)
		}
		return fmt.Errorf("coord: query %d has no shard-epoch pin and no fallback sink", b.QueryID)
	}
	if len(addrs) == 0 {
		err := fmt.Errorf("coord: no shard map for epoch %d", epoch)
		if ahead { // nothing was applied: the agent keeps the batch
			err = fmt.Errorf("%w: %w", host.ErrUndelivered, err)
		}
		return err
	}
	if undialed {
		for i, addr := range addrs {
			if sc.clients[i] == nil {
				sc.clients[i] = r.dial(addr)
			}
		}
	}
	return r.manifest(central.RouteToShards(b, sc.clients, &sc.RouteScratch))
}
