// Package coord runs ScrubCentral as a multi-process shard fabric: a
// coordinator process owns query registration, shard membership and the
// merge layer; shard processes run central engines in driven mode (no
// self-closing windows); and routers — on the host agents, or inside the
// coordinator for legacy hosts — split every tuple batch across shards by
// hash(request-id) mod shards, so the request-identifier equi-join stays
// shard-local exactly as in the in-process ShardedEngine.
//
// The merge layer is central.Merger — the same one ShardedEngine runs
// in-process — reached here through an RPC central.ShardClient: shards
// absorb sub-batches and report what they observed (max in-span event
// time, the late and overflow drops the sub-batch caused) in synchronous
// acks; the router folds the acks
// into a BatchManifest that reaches the coordinator only after every
// shard has applied its slice; and the merger makes its stream-lease,
// watermark, replay-hold and window-close decisions per manifest. Window
// state crosses the wire as serialized partials (central.EncodedPartial)
// that the client decodes before the merger sees them, so the
// differential oracle can hold a 1-process Engine and an N-process
// topology to bit-identical windows, rows, bounds and stats.
//
// Membership is epoch-numbered: every join or leave bumps the epoch. A
// query pins the epoch current at its start (carried on HostQuery), and
// the server sends each host the pinned ShardMap ahead of the query on
// its control connection, so all hosts split its request-id space over
// the same shard list for the query's whole life;
// later joins serve new queries only, and a shard death degrades the
// queries pinned to it (results keep flowing, flagged Degraded) instead
// of wedging their watermarks.
//
//scrub:longlived
package coord

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scrub/internal/central"
	"scrub/internal/transport"
	"scrub/internal/window"
)

// rpcTimeout bounds every synchronous shard RPC — the write as well as
// the read — so a hung (but not yet closed) shard process cannot wedge
// the coordinator or a router; lease expiry needs failures to surface in
// bounded time.
const rpcTimeout = 5 * time.Second

// shardClient is one synchronous RPC channel to a shard process, and the
// central.ShardClient a coordinator's merger and a host's router reach
// that shard through. Requests are serialized per client and matched to
// responses by sequence number; any transport error or sequence mismatch
// marks the client down and closes the connection — callers degrade,
// they never block forever.
type shardClient struct {
	addr string
	// peer names the other end in errors: "shard <addr>", "coordinator".
	peer string
	// fence is the owning coordinator's fencing term, stamped into every
	// start/collect/stop so the merger never handles it. Nil (term 0) on
	// router and replication channels, which make no fenced call.
	fence *atomic.Uint64
	// timeout bounds one round-trip (rpcTimeout; tests shorten it).
	timeout time.Duration

	mu   sync.Mutex
	conn *transport.Conn
	seq  uint64
	// sub is the sub-batch Apply is sending: encoded by pointer from here,
	// a sub-batch costs neither a closure nor a boxed message.
	sub transport.ShardSubBatch

	down   atomic.Bool
	lastOK atomic.Int64 // wall nanos of the last successful round-trip
}

var _ central.ShardClient = (*shardClient)(nil)

// newShardClient wraps an established connection (tests, pipes). A nil
// connection yields a client latched down from the start.
func newShardClient(conn *transport.Conn, addr string, fence *atomic.Uint64) *shardClient {
	c := &shardClient{addr: addr, peer: "shard " + addr, conn: conn, fence: fence, timeout: rpcTimeout}
	c.down.Store(conn == nil)
	c.lastOK.Store(time.Now().UnixNano())
	return c
}

// dialShard connects to a shard's data address.
func dialShard(addr string, fence *atomic.Uint64) (*shardClient, error) {
	conn, err := transport.Dial(addr, rpcTimeout)
	if err != nil {
		return nil, err
	}
	return newShardClient(conn, addr, fence), nil
}

// Down implements central.ShardClient.
func (c *shardClient) Down() bool { return c.down.Load() }

func (c *shardClient) term() uint64 {
	if c.fence == nil {
		return 0
	}
	return c.fence.Load()
}

// lagNanos reports how long ago the last successful RPC completed.
func (c *shardClient) lagNanos() int64 { return time.Now().UnixNano() - c.lastOK.Load() }

func (c *shardClient) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked()
}

func (c *shardClient) failLocked() {
	c.down.Store(true)
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one request built with the next sequence number and returns
// the response.
func (c *shardClient) do(build func(seq uint64) transport.Message) (transport.Message, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	resp, err := c.roundTripLocked(build(c.seq))
	return resp, c.seq, err
}

// roundTripLocked sends one request, which carries c.seq, and returns the
// response. The deadline covers the whole round-trip: a peer that has
// gone silent fails the read, and one that has stopped reading while its
// socket buffer is full fails the write instead of blocking it for ever.
func (c *shardClient) roundTripLocked(req transport.Message) (transport.Message, error) {
	if c.conn == nil {
		return nil, fmt.Errorf("coord: %s is down", c.peer)
	}
	c.conn.SetDeadline(time.Now().Add(c.timeout))
	if err := c.conn.Send(req); err != nil {
		c.failLocked()
		return nil, err
	}
	resp, err := c.conn.Recv()
	if err != nil {
		c.failLocked()
		return nil, err
	}
	c.lastOK.Store(time.Now().UnixNano())
	return resp, nil
}

func (c *shardClient) seqErr(got transport.Message) error {
	c.mu.Lock()
	c.failLocked()
	c.mu.Unlock()
	return fmt.Errorf("coord: %s: unexpected response %s", c.peer, transport.Name(got))
}

// Start implements central.ShardClient. The shard re-analyzes the plan's
// source text against its own catalog, so the plan must carry it.
func (c *shardClient) Start(qr *central.QueryRuntime) error {
	msg := ShardStartFromPlan(qr.Plan())
	msg.Fence = c.term()
	resp, seq, err := c.do(func(s uint64) transport.Message { msg.Seq = s; return msg })
	if err != nil {
		return err
	}
	ack, ok := resp.(transport.ShardAck)
	if !ok || ack.Seq != seq {
		return c.seqErr(resp)
	}
	if ack.Err != "" {
		return fmt.Errorf("coord: %s: %s", c.peer, ack.Err)
	}
	return nil
}

// Apply implements central.ShardClient.
func (c *shardClient) Apply(b transport.TupleBatch) (central.DrivenAck, bool, error) {
	c.mu.Lock()
	c.seq++
	seq := c.seq
	//scrub:allowretain(held under mu for the one round trip that encodes it, and cleared before Apply returns)
	c.sub = transport.ShardSubBatch{Seq: seq, QueryID: b.QueryID, HostID: b.HostID, TypeIdx: b.TypeIdx, EffRate: b.EffRate, Tuples: b.Tuples}
	resp, err := c.roundTripLocked(&c.sub)
	c.sub = transport.ShardSubBatch{}
	c.mu.Unlock()
	if err != nil {
		return central.DrivenAck{}, false, err
	}
	ack, ok := resp.(transport.ShardBatchAck)
	if !ok || ack.Seq != seq {
		return central.DrivenAck{}, false, c.seqErr(resp)
	}
	return central.DrivenAck{
		HasTs: ack.HasTs, MaxTs: ack.MaxTs,
		LateDelta: ack.LateDelta, OverflowDelta: ack.OverflowDelta,
	}, ack.Known, nil
}

// Collect implements central.ShardClient.
func (c *shardClient) Collect(qr *central.QueryRuntime, bound int64) ([]window.Closed[central.PartialWindow], error) {
	sp, err := c.partials(func(s uint64) transport.Message {
		return transport.ShardCollectReq{Seq: s, Fence: c.term(), QueryID: qr.Plan().QueryID, Bound: bound}
	})
	return decodeWindows(qr, sp, err)
}

// Stop implements central.ShardClient.
func (c *shardClient) Stop(qr *central.QueryRuntime) ([]window.Closed[central.PartialWindow], error) {
	sp, err := c.drain(qr.Plan().QueryID)
	return decodeWindows(qr, sp, err)
}

// drain stops a query on the shard and returns its remaining partials
// undecoded — all a takeover needs to clear an orphan it has no plan for.
func (c *shardClient) drain(queryID uint64) (transport.ShardPartials, error) {
	return c.partials(func(s uint64) transport.Message {
		return transport.ShardStopReq{Seq: s, Fence: c.term(), QueryID: queryID}
	})
}

// partials runs one collect or stop round-trip. A shard that rejected the
// caller's fencing term latches the client down: the coordinator holding
// it was deposed, and every further RPC from it would be rejected the
// same way. Latching down sends its queries into the ordinary degrade
// path — a deposed leader stops emitting instead of emitting windows that
// conflict with its successor's.
func (c *shardClient) partials(build func(seq uint64) transport.Message) (transport.ShardPartials, error) {
	resp, seq, err := c.do(build)
	if err != nil {
		return transport.ShardPartials{}, err
	}
	sp, ok := resp.(transport.ShardPartials)
	if !ok || sp.Seq != seq {
		return transport.ShardPartials{}, c.seqErr(resp)
	}
	if sp.Stale {
		return transport.ShardPartials{}, c.staleErr()
	}
	return sp, nil
}

func (c *shardClient) staleErr() error {
	c.close()
	return fmt.Errorf("coord: %s: stale fencing epoch (deposed)", c.peer)
}

// decodeWindows turns a shard's serialized partials into merger-ready
// windows. Undecodable state is lost state: the error reports it, and the
// partials that did decode are returned alongside.
func decodeWindows(qr *central.QueryRuntime, sp transport.ShardPartials, err error) ([]window.Closed[central.PartialWindow], error) {
	if err != nil {
		return nil, err
	}
	var windows []window.Closed[central.PartialWindow]
	for _, wp := range sp.Partials {
		pw, derr := qr.DecodePartial(wp.Data)
		if derr != nil {
			err = fmt.Errorf("coord: query %d window [%d,%d): %w", qr.Plan().QueryID, wp.Start, wp.End, derr)
			continue
		}
		windows = append(windows, window.Closed[central.PartialWindow]{Start: wp.Start, End: wp.End, State: *pw})
	}
	return windows, err
}

// installFence installs the caller's fencing epoch on the shard and
// returns the shard's active query ids for takeover reconciliation.
func (c *shardClient) installFence() (transport.ShardFenceAck, error) {
	resp, seq, err := c.do(func(s uint64) transport.Message {
		return transport.ShardFence{Seq: s, Fence: c.term()}
	})
	if err != nil {
		return transport.ShardFenceAck{}, err
	}
	ack, ok := resp.(transport.ShardFenceAck)
	if !ok || ack.Seq != seq {
		return transport.ShardFenceAck{}, c.seqErr(resp)
	}
	if !ack.Ok {
		return ack, c.staleErr()
	}
	return ack, nil
}

// TuplesIn implements central.ShardClient.
func (c *shardClient) TuplesIn(id uint64) (uint64, bool) {
	sr, err := c.stats(id)
	return sr.TuplesIn, err == nil && sr.Found
}

func (c *shardClient) stats(queryID uint64) (transport.ShardStatsResp, error) {
	resp, seq, err := c.do(func(s uint64) transport.Message {
		return transport.ShardStatsReq{Seq: s, QueryID: queryID}
	})
	if err != nil {
		return transport.ShardStatsResp{}, err
	}
	sr, ok := resp.(transport.ShardStatsResp)
	if !ok || sr.Seq != seq {
		return transport.ShardStatsResp{}, c.seqErr(resp)
	}
	return sr, nil
}

// repAppend ships replication log entries (or a heartbeat, when entries
// is empty) to a standby over the same serialized RPC channel shards
// use.
func (c *shardClient) repAppend(term, index uint64, entries []transport.RepEntry) (transport.RepAck, error) {
	resp, seq, err := c.do(func(s uint64) transport.Message {
		return transport.RepAppend{Seq: s, Term: term, Index: index, Entries: entries}
	})
	if err != nil {
		return transport.RepAck{}, err
	}
	ack, ok := resp.(transport.RepAck)
	if !ok || ack.Seq != seq {
		return transport.RepAck{}, c.seqErr(resp)
	}
	return ack, nil
}
