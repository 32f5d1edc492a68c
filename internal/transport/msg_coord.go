package transport

import "scrub/internal/wire"

// Coordination protocol for a distributed ScrubCentral (internal/coord):
// a coordinator process owns query registration, shard membership and the
// merge layer; shard processes run driven central engines; hosts (or the
// coordinator's own data plane, for legacy hosts) route each batch's
// tuples to shards by hash(request-id) mod shards and report the batch to
// the coordinator in a manifest.
//
// Four sub-conversations:
//
//   - coordinator → shard (control): ShardStart / ShardCollectReq /
//     ShardStopReq / ShardStatsReq with their replies
//   - router → shard (data): ShardSubBatch → ShardBatchAck (synchronous,
//     so shard application happens-before the manifest that reports it)
//   - router → coordinator (data): BatchManifest → ManifestAck
//   - shard → coordinator (membership): ShardHello. Hosts learn shard maps
//     from the queries that pin them: the server sends a query's ShardMap
//     ahead of its HostQuery on the host's control connection.
//
// Coordinator high availability adds two more:
//
//   - leader → standby (replication): RepAppend → RepAck carries the
//     whole control-plane state (the membership and the running
//     queries' registrations) after every change, which the standby
//     holds in place of what it held before; a Beat RepAppend carries no
//     state and is the leader heartbeat
//   - coordinator → shard (fencing): ShardFence → ShardFenceAck installs
//     a fencing epoch; ShardStart/ShardCollectReq/ShardStopReq carry the
//     caller's epoch so a deposed leader's RPCs are rejected
//
// New tags append after the base protocol's so old and new binaries never
// reinterpret each other's messages.
const (
	tagShardStart byte = iota + tagQueryList + 1
	tagShardAck
	tagShardSubBatch
	tagShardBatchAck
	tagShardCollectReq
	tagShardPartials
	tagShardStopReq
	tagShardStatsReq
	tagShardStatsResp
	tagBatchManifest
	tagManifestAck
	tagShardHello
	tagShardMap
	tagShardStatusReq
	tagShardStatusList
	tagShardFence
	tagShardFenceAck
	tagRepAppend
	tagRepAck
)

// ShardStart installs a query on a shard process in driven mode. It
// carries what a shard cannot read off the query text: the shard parses
// and analyzes Text against its own catalog, then applies the deployment
// facts the coordinator resolved.
type ShardStart struct {
	Seq uint64
	// Fence is the sending coordinator's fencing epoch; a shard rejects
	// starts from an epoch below the highest it has seen. 0 (standalone
	// deployments) is never below anything.
	Fence      uint64
	QueryID    uint64
	Text       string
	StartNanos int64
	EndNanos   int64
	// Estimator facts resolved at submission (central.Plan fields).
	TotalHosts   uint32
	SampledHosts uint32
	// LatenessNanos is the plan's declared lateness, 0 when unset: whether
	// one was declared selects how windows close, so a standby that
	// resumes the query must close them by the same rule as its leader.
	LatenessNanos int64
}

// ShardAck answers ShardStart (and ShardStopReq teardown races): an empty
// Err means success.
type ShardAck struct {
	Seq uint64
	Err string
}

// ShardSubBatch carries the slice of one host batch whose request ids
// hash to this shard, with the batch's rate, which weights them at apply.
// Counters stay out: they belong to the manifest sent the coordinator.
type ShardSubBatch struct {
	Seq     uint64
	QueryID uint64
	HostID  string
	TypeIdx uint8
	EffRate float64
	// Tuples may alias the sending router's caller-owned batch memory;
	// the send serializes them before returning (see Sink contract).
	//scrub:pooled
	Tuples []Tuple
}

// ShardBatchAck answers ShardSubBatch with what the driven engine
// observed while absorbing it. The router folds per-shard acks (OR HasTs,
// max MaxTs, sum the deltas) to recover exactly what an in-process
// ShardedEngine would have seen around its synchronous fan-out. The
// deltas are the sub-batch's own: a shard reports no running total.
type ShardBatchAck struct {
	Seq           uint64
	Known         bool // false: the shard does not know the query (teardown race)
	HasTs         bool
	MaxTs         int64
	LateDelta     uint64 // window-late drops this sub-batch caused
	OverflowDelta uint64 // raw-row and join-pending overflow drops this sub-batch caused
}

// ShardCollectReq asks a shard to close every window of a query ending at
// or before Bound and return the serialized partials.
type ShardCollectReq struct {
	Seq     uint64
	Fence   uint64 // sender's fencing epoch (see ShardStart.Fence)
	QueryID uint64
	Bound   int64
}

// WindowPartial is one closed window's serialized accumulated state
// (central.EncodedPartial on the wire).
type WindowPartial struct {
	Start int64
	End   int64
	Data  []byte
}

// ShardPartials answers ShardCollectReq and ShardStopReq.
type ShardPartials struct {
	Seq uint64
	// Stale reports the request carried a fencing epoch below the shard's:
	// the caller was deposed and got no state (no partials).
	Stale    bool
	Partials []WindowPartial
}

// ShardStopReq drains and removes a query from a shard.
type ShardStopReq struct {
	Seq     uint64
	Fence   uint64 // sender's fencing epoch (see ShardStart.Fence)
	QueryID uint64
}

// ShardStatsReq polls a shard: QueryID > 0 asks for that query's absorbed
// tuple count; QueryID == 0 asks for node-level status.
type ShardStatsReq struct {
	Seq     uint64
	QueryID uint64
}

// ShardStatsResp answers ShardStatsReq.
type ShardStatsResp struct {
	Seq           uint64
	Found         bool
	TuplesIn      uint64
	ActiveQueries uint32
}

// BatchManifest reports one whole host batch to the coordinator after its
// tuples were routed to shards: the batch's header (its stream and the
// host's cumulative counters, Tuples nil) plus what routing did with it.
// The coordinator's merge core (central.Merger.Observe) folds it into
// stream liveness and watermark state; an in-process cluster builds the
// same manifest from the same fan-out (central.RouteToShards) and folds it
// the same way. Every fact about the batch rides here: QueueDrops is the
// host's own cumulative count; LateDelta, OverflowDelta and RouteDrops
// are what this batch cost at the shards and in routing, summed over its
// sub-batches. A lost manifest takes them with it: the agent charges its
// batch to sink-error tuples, and no later manifest counts them.
type BatchManifest struct {
	Seq uint64
	TupleBatch
	RawTuples     uint64 // tuple count before the span filter (ingest accounting)
	HasTs         bool   // any in-span tuple (folded from the shard acks)
	MaxTs         int64  // max in-span event time
	LateDelta     uint64 // window-late drops this batch caused, attributed to this stream
	OverflowDelta uint64 // overflow drops this batch caused, attributed to this stream
	RouteDrops    uint64 // this batch's tuples no live shard running the query applied
}

// ManifestAck answers BatchManifest; the synchronous round-trip keeps
// manifest processing ordered after the shard applications it reports.
type ManifestAck struct {
	Seq uint64
}

// ShardHello announces a shard process to the coordinator's membership
// plane: the coordinator dials DataAddr back for control and data RPC.
type ShardHello struct {
	ShardID  string
	DataAddr string
}

// ShardMap is one epoch's shard membership, as a host agent's router
// learns it: the server sends the map a query pins ahead of the query on
// the host's control connection. A query's routing is pinned to the epoch
// current at its start (carried on HostQuery), so membership changes
// never split a running query's request-id space across disagreeing
// hosts.
type ShardMap struct {
	Epoch uint32
	// Fence is the fencing epoch of the coordinator that pushed the map;
	// routers ignore maps from an epoch below the highest they have seen,
	// so a deposed leader cannot redirect routing.
	Fence uint64
	Addrs []string // shard data addresses, index = shard position in rid % n
}

// ShardStatusReq asks the query server for its shard fabric status; a
// single-process deployment answers with an empty list.
type ShardStatusReq struct{}

// ShardStatus is one shard's row in the operational view.
type ShardStatus struct {
	Index         uint32
	Addr          string
	Down          bool
	LagNanos      int64 // time since the shard's last successful RPC
	ActiveQueries uint32
	TuplesIn      uint64
}

// ShardStatusList answers ShardStatusReq.
type ShardStatusList struct {
	Epoch          uint32
	Merges         uint64 // partial-window merges performed
	Rebalances     uint64 // membership epoch bumps
	EvictedStreams uint32 // evicted streams across active queries
	Shards         []ShardStatus
}

// ShardFence installs a coordinator's fencing epoch on a shard at
// takeover. The shard latches the highest epoch it has seen and from then
// on rejects collect/stop/start RPCs from any lower epoch, so a deposed
// leader can never drain state or emit a conflicting window.
type ShardFence struct {
	Seq   uint64
	Fence uint64
}

// ShardFenceAck answers ShardFence. Queries lists the shard's active
// query ids so the new leader can reconcile: re-install what it knows
// (idempotent) and stop orphans a dead leader installed but never
// replicated.
type ShardFenceAck struct {
	Seq     uint64
	Fence   uint64 // the shard's fencing epoch after the call
	Ok      bool   // false: the caller's epoch was below the shard's
	Queries []uint64
}

// RepEntry is one running query's replicated registration: its
// wire-form start (Seq and Fence unused), the shard map it pinned (epoch
// and shard addresses, in rid % n order) and its replay-hold deadline.
// Only the control plane is replicated, never the manifest/partial flow:
// window state lives on shards and any merger can re-collect it.
type RepEntry struct {
	Start          ShardStart
	PinEpoch       uint32
	PinAddrs       []string
	ReplayDeadline int64
}

// RepAppend carries the leader's whole control-plane state to a standby,
// which replaces what it held with it: the membership (epoch and shard
// addresses in rid % n order) and every running query's registration, in
// query-id order. A Beat append is the leader heartbeat and carries no
// state. Term is the leader's fencing epoch: a standby refuses appends
// from a term below the highest it has acknowledged.
type RepAppend struct {
	Seq      uint64
	Term     uint64
	Beat     bool
	MapEpoch uint32
	Addrs    []string
	Queries  []RepEntry
}

// RepAck answers RepAppend. Ok false means the receiver has promoted or
// seen a higher term (its Term): the sender was deposed.
type RepAck struct {
	Seq  uint64
	Term uint64 // receiver's highest term
	Ok   bool
}

func (ShardStart) msgTag() byte      { return tagShardStart }
func (ShardAck) msgTag() byte        { return tagShardAck }
func (ShardSubBatch) msgTag() byte   { return tagShardSubBatch }
func (ShardBatchAck) msgTag() byte   { return tagShardBatchAck }
func (ShardCollectReq) msgTag() byte { return tagShardCollectReq }
func (ShardPartials) msgTag() byte   { return tagShardPartials }
func (ShardStopReq) msgTag() byte    { return tagShardStopReq }
func (ShardStatsReq) msgTag() byte   { return tagShardStatsReq }
func (ShardStatsResp) msgTag() byte  { return tagShardStatsResp }
func (BatchManifest) msgTag() byte   { return tagBatchManifest }
func (ManifestAck) msgTag() byte     { return tagManifestAck }
func (ShardHello) msgTag() byte      { return tagShardHello }
func (ShardMap) msgTag() byte        { return tagShardMap }
func (ShardStatusReq) msgTag() byte  { return tagShardStatusReq }
func (ShardStatusList) msgTag() byte { return tagShardStatusList }
func (ShardFence) msgTag() byte      { return tagShardFence }
func (ShardFenceAck) msgTag() byte   { return tagShardFenceAck }
func (RepAppend) msgTag() byte       { return tagRepAppend }
func (RepAck) msgTag() byte          { return tagRepAck }

func (t *ShardStart) code(c *coder) {
	c.U64(&t.Seq)
	c.U64(&t.Fence)
	c.U64(&t.QueryID)
	c.Str(&t.Text)
	c.I64(&t.StartNanos)
	c.I64(&t.EndNanos)
	c.U32(&t.TotalHosts)
	c.U32(&t.SampledHosts)
	c.I64(&t.LatenessNanos)
}

func (t *ShardAck) code(c *coder) {
	c.U64(&t.Seq)
	c.Str(&t.Err)
}

func (t *ShardSubBatch) code(c *coder) {
	c.U64(&t.Seq)
	c.U64(&t.QueryID)
	c.Str(&t.HostID)
	c.U8(&t.TypeIdx)
	c.F64(&t.EffRate)
	c.tuples(&t.Tuples)
}

func (t *ShardBatchAck) code(c *coder) {
	c.U64(&t.Seq)
	c.Bool(&t.Known)
	c.Bool(&t.HasTs)
	c.I64(&t.MaxTs)
	c.U64(&t.LateDelta)
	c.U64(&t.OverflowDelta)
}

func (t *ShardCollectReq) code(c *coder) {
	c.U64(&t.Seq)
	c.U64(&t.Fence)
	c.U64(&t.QueryID)
	c.I64(&t.Bound)
}

func (t *ShardPartials) code(c *coder) {
	c.U64(&t.Seq)
	c.Bool(&t.Stale)
	wire.Length(&c.Coder, &t.Partials, wire.EmptyNil, "implausible partial count")
	for i := range t.Partials {
		p := &t.Partials[i]
		c.I64(&p.Start)
		c.I64(&p.End)
		c.Bytes(&p.Data)
	}
}

func (t *ShardStopReq) code(c *coder) {
	c.U64(&t.Seq)
	c.U64(&t.Fence)
	c.U64(&t.QueryID)
}

func (t *ShardStatsReq) code(c *coder) {
	c.U64(&t.Seq)
	c.U64(&t.QueryID)
}

func (t *ShardStatsResp) code(c *coder) {
	c.U64(&t.Seq)
	c.Bool(&t.Found)
	c.U64(&t.TuplesIn)
	c.U32(&t.ActiveQueries)
}

func (t *BatchManifest) code(c *coder) {
	c.U64(&t.Seq)
	t.stream(c)
	c.U64(&t.RawTuples)
	c.Bool(&t.HasTs)
	c.I64(&t.MaxTs)
	c.U64(&t.LateDelta)
	c.U64(&t.OverflowDelta)
	c.U64(&t.RouteDrops)
	t.counters(c)
}

func (t *ManifestAck) code(c *coder) { c.U64(&t.Seq) }

func (t *ShardHello) code(c *coder) {
	c.Str(&t.ShardID)
	c.Str(&t.DataAddr)
}

func (t *ShardMap) code(c *coder) {
	c.U32(&t.Epoch)
	c.U64(&t.Fence)
	c.Strs(&t.Addrs)
}

func (t *ShardStatusList) code(c *coder) {
	c.U32(&t.Epoch)
	c.U64(&t.Merges)
	c.U64(&t.Rebalances)
	c.U32(&t.EvictedStreams)
	wire.Length(&c.Coder, &t.Shards, wire.EmptyNil, "implausible shard count")
	for i := range t.Shards {
		s := &t.Shards[i]
		c.U32(&s.Index)
		c.Str(&s.Addr)
		c.Bool(&s.Down)
		c.I64(&s.LagNanos)
		c.U32(&s.ActiveQueries)
		c.U64(&s.TuplesIn)
	}
}

func (t *ShardFence) code(c *coder) {
	c.U64(&t.Seq)
	c.U64(&t.Fence)
}

func (t *ShardFenceAck) code(c *coder) {
	c.U64(&t.Seq)
	c.U64(&t.Fence)
	c.Bool(&t.Ok)
	c.U64s(&t.Queries)
}

// RepAppend nests each registration's start as its wire ShardStart.
func (t *RepAppend) code(c *coder) {
	c.U64(&t.Seq)
	c.U64(&t.Term)
	c.Bool(&t.Beat)
	c.U32(&t.MapEpoch)
	c.Strs(&t.Addrs)
	wire.Length(&c.Coder, &t.Queries, wire.EmptyNil, "implausible registration count")
	for i := range t.Queries {
		e := &t.Queries[i]
		e.Start.code(c)
		c.U32(&e.PinEpoch)
		c.Strs(&e.PinAddrs)
		c.I64(&e.ReplayDeadline)
	}
}

func (t *RepAck) code(c *coder) {
	c.U64(&t.Seq)
	c.U64(&t.Term)
	c.Bool(&t.Ok)
}
