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
// router hands its manifests to the coordinator directly. The differential
// sweep drives it next to the in-process cluster: same merger, RPC clients
// for direct ones, and the results must be bit-identical.
//
// net.Pipe is fully synchronous, so every RPC round-trip is a
// happens-before edge: the single-threaded harness observes the same
// strict batch → shard-apply → manifest → close ordering a production
// deployment gets from the router's synchronous ack protocol.
type pipeTopology struct {
	coord  *coord.Coordinator
	router *coord.Router
	nodes  []*coord.ShardNode
	// manifest is the router's current target; failoverTopology.failover
	// swaps it to the promoted coordinator. The harness is single-threaded,
	// so a plain field suffices.
	manifest coord.ManifestFunc
}

// newPipeTopology wires coordinator c to n shard nodes and a router. Each
// shard node analyzes query text against its own catalog instance,
// exactly like a separate process would.
func newPipeTopology(c *coord.Coordinator, shards int, cat func() *event.Catalog) *pipeTopology {
	t := &pipeTopology{coord: c}
	t.connect(c)
	t.router = coord.NewRouter(func(m transport.BatchManifest) error {
		return t.manifest(m)
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

// connect points the router's manifests at coordinator c.
func (t *pipeTopology) connect(c *coord.Coordinator) {
	t.manifest = func(m transport.BatchManifest) error {
		c.HandleManifest(m)
		return nil
	}
}

// start registers the query on the coordinator and pins the router's
// routing to the query's shard-map epoch, the way a host agent would on
// receiving the HostQuery fan-out.
func (t *pipeTopology) start(p central.Plan, emit central.EmitFunc) error {
	if err := t.coord.StartQuery(p, emit); err != nil {
		return err
	}
	epoch, ok := t.coord.QueryEpoch(p.QueryID)
	if !ok {
		return fmt.Errorf("difftest: query %d vanished after StartQuery", p.QueryID)
	}
	t.router.HandleShardMap(t.coord.ShardMap())
	t.router.PinQuery(p.QueryID, epoch)
	return nil
}

// close tears down every connection; the per-connection serve loops exit
// on their next Recv.
func (t *pipeTopology) close() {
	t.router.Close()
	t.coord.Close()
}

// failoverTopology is the fourth executor arm: the same fabric as
// pipeTopology, but the coordinator replicates its control plane to a
// standby, and the harness kills the leader mid-query. The standby
// promotes under a higher fencing term, resumes the replicated
// registration against the still-live shard nodes, and finishes the
// query — so every sweep seed exercises the takeover path, not just the
// dedicated failover tests.
type failoverTopology struct {
	*pipeTopology
	standby *coord.Standby
	emit    central.EmitFunc
	queryID uint64
}

func newFailoverTopology(shards int, opts central.Options, cat func() *event.Catalog) *failoverTopology {
	c := coord.NewCoordinator(opts)
	// Heartbeats an hour out: replication rides the synchronous appends
	// only, so the single-threaded harness stays deterministic.
	c.StartReplication(coord.ReplicationConfig{Term: 1, Heartbeat: time.Hour})
	t := &failoverTopology{}
	t.standby = coord.NewStandby(coord.StandbyOptions{
		Central: coordOptions(opts),
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

// coordOptions passes the leader's clock/lease config through to the
// coordinator a promotion builds (the contracts need both on one clock).
func coordOptions(opts central.Options) coord.Options {
	return coord.Options{Clock: opts.Clock, LeaseTTL: opts.LeaseTTL}
}

func (t *failoverTopology) start(p central.Plan, emit central.EmitFunc) error {
	t.emit, t.queryID = emit, p.QueryID
	return t.pipeTopology.start(p, emit)
}

// failover kills the leader and promotes the standby. The replicated
// registration must survive: losing it would drop the query on the floor.
func (t *failoverTopology) failover() error {
	t.coord.Close()
	promoted, resumed, err := t.standby.Promote(
		func(coord.ResumedQuery, *central.Plan) central.EmitFunc { return t.emit })
	if err != nil {
		return fmt.Errorf("difftest: promote: %v", err)
	}
	found := false
	for _, rq := range resumed {
		if rq.QueryID == t.queryID {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("difftest: leader death lost query %d (resumed: %v)", t.queryID, resumed)
	}
	t.coord = promoted
	t.connect(promoted)
	t.router.HandleShardMap(promoted.ShardMap())
	return nil
}
