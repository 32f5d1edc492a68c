package difftest

import (
	"fmt"
	"time"

	"scrub/internal/central"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/transport"
)

// pipeTopology stands up a real multi-process ScrubCentral in miniature:
// a coordinator, n shard nodes and a host-side router, every shard hop
// over the in-memory pipe transport through the full wire codec; the
// router hands its manifests to the coordinator directly. It is an
// executor like the in-process cluster (same merger, RPC clients for
// direct ones), and Arms holds its results to that cluster's.
//
// net.Pipe is fully synchronous, so every RPC round-trip is a
// happens-before edge: the single-threaded harness observes the same
// strict batch → shard-apply → manifest → close ordering a production
// deployment gets from the router's synchronous ack protocol.
type pipeTopology struct {
	coord  *coord.Coordinator
	router *coord.Router
	nodes  []*coord.ShardNode
	err    error // the first batch the router could not route
}

// newPipeTopology wires coordinator c to n shard nodes and a router. Each
// shard node analyzes query text against its own catalog instance,
// exactly like a separate process would.
func newPipeTopology(c *coord.Coordinator, shards int, cat func() *event.Catalog) *pipeTopology {
	t := &pipeTopology{coord: c}
	// Manifests go to the current coordinator, the promoted one after a
	// failover. The harness is single-threaded, so a plain field suffices.
	t.router = coord.NewRouter(func(m transport.BatchManifest) error {
		t.coord.HandleManifest(m)
		return nil
	}, nil)
	for i := 0; i < shards; i++ {
		node := coord.NewShardNode(cat())
		// Every sub-batch's borrowed cells turn to garbage once applied:
		// shard state that kept one instead of a copy is a divergence with
		// a seed, not a latent bug.
		node.PoisonBorrowed()
		t.nodes = append(t.nodes, node)
		addr := fmt.Sprintf("shard-%d", i)
		cc, cs := transport.Pipe()
		go node.ServeConn(cs)
		t.coord.AddShardConn(cc, addr)
		rc, rs := transport.Pipe()
		go node.ServeConn(rs)
		t.router.AddShardConn(addr, rc)
	}
	return t
}

// StartQuery registers the query on the coordinator, then hands the router
// the query's pinned shard map and pins its routing to that map's epoch,
// the way a host agent would on receiving the query's dispatch.
func (t *pipeTopology) StartQuery(p central.Plan, emit central.EmitFunc) error {
	if err := t.coord.StartQuery(p, emit); err != nil {
		return err
	}
	m, ok := t.coord.PinnedMap(p.QueryID)
	if !ok {
		return fmt.Errorf("difftest: query %d vanished after StartQuery", p.QueryID)
	}
	t.router.HandleShardMap(m)
	t.router.PinQuery(p.QueryID, m.Epoch)
	return nil
}

// HandleBatch routes b as the host's router would; the first failure is
// kept in err.
func (t *pipeTopology) HandleBatch(b transport.TupleBatch) {
	if err := t.router.SendBatch(b); err != nil && t.err == nil {
		t.err = fmt.Errorf("routing: %v", err)
	}
}

func (t *pipeTopology) Tick(nowNanos int64) { t.coord.Tick(nowNanos) }

func (t *pipeTopology) StopQuery(id uint64) (transport.QueryStats, bool) {
	return t.coord.StopQuery(id)
}

func (t *pipeTopology) Stats(id uint64) (transport.QueryStats, bool) { return t.coord.Stats(id) }

// close tears down every connection; the per-connection serve loops exit
// on their next Recv.
func (t *pipeTopology) close() {
	t.router.Close()
	t.coord.Close()
}

// failoverTopology is the fourth executor arm: the same fabric as
// pipeTopology, but the coordinator replicates its control plane to a
// standby, and Arms kills the leader mid-query. The standby promotes
// under a higher fencing term, resumes the replicated registration
// against the still-live shard nodes, and finishes the query — so every
// schedule exercises the takeover path, not just the dedicated failover
// tests.
type failoverTopology struct {
	*pipeTopology
	standby *coord.Standby
	emit    central.EmitFunc
}

func newFailoverTopology(shards int, opts central.Options, cat func() *event.Catalog) *failoverTopology {
	c := coord.NewCoordinator(opts)
	// Heartbeats an hour out: replication rides the synchronous appends
	// only, so the single-threaded harness stays deterministic.
	c.StartReplication(coord.ReplicationConfig{Term: 1, Heartbeat: time.Hour})
	t := &failoverTopology{}
	t.standby = coord.NewStandby(coord.StandbyOptions{
		// The promoted coordinator runs on the leader's clock and leases.
		Central: coord.Options{Clock: opts.Clock, LeaseTTL: opts.LeaseTTL},
		Catalog: cat(),
		Dial: func(addr string) (*transport.Conn, error) {
			for i, node := range t.nodes {
				if addr == fmt.Sprintf("shard-%d", i) {
					cc, cs := transport.Pipe()
					go node.ServeConn(cs)
					return cc, nil
				}
			}
			return nil, fmt.Errorf("difftest: unknown shard %q", addr)
		},
	})
	sbc, sbs := transport.Pipe()
	go t.standby.ServeConn(sbs)
	c.AddStandbyConn(sbc, "standby-0")
	t.pipeTopology = newPipeTopology(c, shards, cat)
	return t
}

func (t *failoverTopology) StartQuery(p central.Plan, emit central.EmitFunc) error {
	t.emit = emit
	return t.pipeTopology.StartQuery(p, emit)
}

// failover kills the leader and promotes the standby. The replicated
// registration must survive: a promoted coordinator that lost it fails
// the arm's StopQuery.
func (t *failoverTopology) failover() error {
	t.coord.Close()
	promoted, _, err := t.standby.Promote(t.emit)
	if err != nil {
		return fmt.Errorf("difftest: promote: %v", err)
	}
	t.coord = promoted
	t.router.HandleShardMap(promoted.ShardMap())
	return nil
}
