package coord

import (
	"fmt"
	"sync/atomic"
	"time"

	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/obs"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// ShardNode is one shard process's serving side: a central.Engine kernel
// behind a per-connection RPC loop. Windows never close here — the
// coordinator's collect barriers are the only close authority — so a
// shard holds state, absorbs sub-batches, and answers collect/stop/stats.
//
// The node also enforces coordinator fencing: it latches the highest
// fencing epoch any start/collect/stop/fence RPC has carried and rejects
// state-draining RPCs from lower epochs. A deposed leader therefore
// cannot collect or drain windows after a standby took over — the
// takeover's higher epoch fences it out on first contact.
type ShardNode struct {
	eng   *central.Engine
	cat   *event.Catalog
	fence atomic.Uint64
	// poison (tests) makes every serve loop scribble over its receive
	// scratch after each applied sub-batch.
	poison atomic.Bool
}

// NewShardNode creates a shard node over cat that exports no metrics.
func NewShardNode(cat *event.Catalog) *ShardNode { return NewShardNodeWith(cat, nil) }

// NewShardNodeWith creates a shard node over cat whose engine charges its
// open windows to reg's state gauges — the shard is where that state
// lives. It registers nothing else: ingest accounting lives at the
// coordinator, which is the only component that sees whole batches.
func NewShardNodeWith(cat *event.Catalog, reg *obs.Registry) *ShardNode {
	return &ShardNode{eng: central.NewShardEngine(reg), cat: cat}
}

// PoisonBorrowed is a test hook: from now on every serve loop overwrites
// the tuple and value cells it borrowed for a sub-batch with garbage once
// the engine has applied it, so state that kept a borrowed cell — instead
// of a copy — diverges from a reference at once rather than when the
// cell happens to be reused.
func (n *ShardNode) PoisonBorrowed() { n.poison.Store(true) }

// admitFence latches f if it is at least the current fencing epoch and
// reports whether the caller is current. Equal epochs are admitted: the
// same leader may speak over many connections.
func (n *ShardNode) admitFence(f uint64) bool {
	for {
		cur := n.fence.Load()
		if f < cur {
			return false
		}
		if f == cur || n.fence.CompareAndSwap(cur, f) {
			return true
		}
	}
}

// Announce joins the shard served at advertise to the coordinator whose
// data plane listens at join: it sends one ShardHello and closes the
// connection. The coordinator dials the shard back, and membership health
// rides that RPC connection, not this one.
func Announce(join, advertise string) error {
	c, err := transport.Dial(join, 3*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Send(transport.DataHello{HostID: "shard:" + advertise}); err != nil {
		return err
	}
	return c.Send(transport.ShardHello{ShardID: advertise, DataAddr: advertise})
}

// Serve accepts connections until the listener closes. Each connection
// gets its own RPC loop; the engine serializes internally.
func (n *ShardNode) Serve(l *transport.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go n.ServeConn(c)
	}
}

// ServeConn answers RPCs on one connection until it fails or closes.
//
// The loop receives through one scratch of its own, so a sub-batch's
// tuples and values are borrowed: they are good until the next receive
// and no longer. Nothing here or below keeps them — ApplyDriven copies
// what a window retains into its own arenas before it returns, the
// //scrub:pooled contract it already honours for batches that alias a
// host agent's chunk memory — and the ack is built from scalars and sent
// by pointer. Every other message owns its memory.
func (n *ShardNode) ServeConn(c *transport.Conn) {
	defer c.Close()
	var sc transport.RecvScratch
	var batchAck transport.ShardBatchAck // sent by pointer: an ack costs no box
	for {
		m, err := c.RecvBorrowed(&sc)
		if err != nil {
			return
		}
		var resp transport.Message
		switch t := m.(type) {
		case transport.ShardStart:
			resp = n.handleStart(t)
		case *transport.ShardSubBatch:
			ack, known := n.eng.ApplyDriven(transport.TupleBatch{
				QueryID: t.QueryID, HostID: t.HostID, TypeIdx: t.TypeIdx,
				Tuples: t.Tuples, EffRate: t.EffRate,
			})
			if n.poison.Load() {
				sc.Poison()
			}
			batchAck = transport.ShardBatchAck{
				Seq: t.Seq, Known: known,
				HasTs: ack.HasTs, MaxTs: ack.MaxTs,
				LateDelta: ack.LateDelta, OverflowDelta: ack.OverflowDelta,
			}
			resp = &batchAck
		case transport.ShardCollectReq:
			if !n.admitFence(t.Fence) {
				resp = transport.ShardPartials{Seq: t.Seq, Stale: true}
				break
			}
			partials, _, _, _ := n.eng.CollectDriven(t.QueryID, t.Bound)
			resp = transport.ShardPartials{Seq: t.Seq, Partials: partials}
		case transport.ShardStopReq:
			if !n.admitFence(t.Fence) {
				resp = transport.ShardPartials{Seq: t.Seq, Stale: true}
				break
			}
			partials, _ := n.eng.DrainDriven(t.QueryID)
			resp = transport.ShardPartials{Seq: t.Seq, Partials: partials}
		case transport.ShardFence:
			ack := transport.ShardFenceAck{Seq: t.Seq, Ok: n.admitFence(t.Fence)}
			ack.Fence = n.fence.Load()
			if ack.Ok {
				ack.Queries = n.eng.DrivenQueries()
			}
			resp = ack
		case transport.ShardStatsReq:
			resp = n.handleStats(t)
		default:
			// Unknown messages are ignored rather than answered: replying
			// out of band would desynchronize the caller's sequence.
			continue
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// handleStart re-analyzes the query text against the shard's own catalog
// and overlays the deployment facts the coordinator resolved, then
// installs the query in driven mode. The text is the one description of
// the query both sides hold, so a start carries no field the text already
// says, and a shard never runs a plan its text does not; the differential
// oracle holds both analyses to identical semantics.
//
// Starts are idempotent per query id: a promoted standby re-installs
// every replicated registration, and a shard that already runs the query
// must keep its absorbed window state rather than error or reset.
func (n *ShardNode) handleStart(t transport.ShardStart) transport.ShardAck {
	if !n.admitFence(t.Fence) {
		return transport.ShardAck{Seq: t.Seq, Err: "stale fencing epoch"}
	}
	if _, running := n.eng.TuplesIn(t.QueryID); running {
		return transport.ShardAck{Seq: t.Seq}
	}
	cp, err := PlanFromShardStart(t, n.cat)
	if err != nil {
		return transport.ShardAck{Seq: t.Seq, Err: err.Error()}
	}
	if err := n.eng.StartDriven(cp); err != nil {
		return transport.ShardAck{Seq: t.Seq, Err: err.Error()}
	}
	return transport.ShardAck{Seq: t.Seq}
}

func (n *ShardNode) handleStats(t transport.ShardStatsReq) transport.ShardStatsResp {
	resp := transport.ShardStatsResp{
		Seq:           t.Seq,
		ActiveQueries: uint32(len(n.eng.DrivenQueries())),
	}
	if t.QueryID != 0 {
		resp.TuplesIn, resp.Found = n.eng.TuplesIn(t.QueryID)
	} else {
		// QueryID 0 asks for the node view (coordinator Status rows):
		// tuples across every active query.
		resp.Found = true
		for _, id := range n.eng.DrivenQueries() {
			if tuples, ok := n.eng.TuplesIn(id); ok {
				resp.TuplesIn += tuples
			}
		}
	}
	return resp
}

// PlanFromShardStart rebuilds the central plan a ShardStart describes:
// parse and analyze the text, then apply the deployment facts the
// coordinator resolved. Everything else the plan holds is the text's, so
// the shard plan matches the coordinator's bit for bit.
func PlanFromShardStart(t transport.ShardStart, cat *event.Catalog) (central.Plan, error) {
	q, err := ql.Parse(t.Text)
	if err != nil {
		return central.Plan{}, fmt.Errorf("coord: shard parse: %w", err)
	}
	plan, err := ql.Analyze(q, cat)
	if err != nil {
		return central.Plan{}, fmt.Errorf("coord: shard analyze: %w", err)
	}
	cp := central.FromPlan(plan, t.QueryID, t.StartNanos, t.EndNanos,
		int(t.TotalHosts), int(t.SampledHosts))
	cp.Text = t.Text
	cp.Lateness = time.Duration(t.LatenessNanos)
	return cp, nil
}

// ShardStartFromPlan is the inverse mapping, built from a plan at the
// coordinator.
func ShardStartFromPlan(p *central.Plan) transport.ShardStart {
	return transport.ShardStart{
		QueryID:       p.QueryID,
		Text:          p.Text,
		StartNanos:    p.StartNanos,
		EndNanos:      p.EndNanos,
		TotalHosts:    uint32(p.TotalHosts),
		SampledHosts:  uint32(p.SampledHosts),
		LatenessNanos: int64(p.Lateness),
	}
}
