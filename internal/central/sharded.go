package central

import (
	"fmt"
	"time"

	"scrub/internal/liveness"
	"scrub/internal/obs"
	"scrub/internal/transport"
	"scrub/internal/window"
)

// EmitFunc receives each closed window's results. It is called with the
// merger's lock held, so it must enqueue and return: a blocked emit stops
// every query's ingest and tick. The window is the callee's: nothing of
// it is touched after the call. The query server's TCP hub keeps the
// contract by construction (one FIFO and one writer per client
// connection, which is closed when a message waits 2 s for the client).
type EmitFunc func(transport.ResultWindow)

// Options tunes an executor's failure-domain behavior. The zero value is
// production-ready.
type Options struct {
	// LeaseTTL is the per-stream liveness lease timeout: a (host, type)
	// stream that neither ships a batch nor heartbeats for this long is
	// evicted from the query watermark so windows keep closing without
	// it. <= 0 selects liveness.DefaultTTL.
	LeaseTTL time.Duration
	// Clock substitutes time.Now for lease bookkeeping (tests). Lease
	// time is deliberately wall-clock, independent of event time, so
	// virtual-time simulations cannot spuriously evict healthy streams.
	Clock func() time.Time
	// Metrics, when non-nil, registers the executor's scrub_central_*
	// series, including a per-query tuple counter added at StartQuery and
	// removed at StopQuery.
	Metrics *obs.Registry
}

func (o *Options) fillDefaults() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = liveness.DefaultTTL
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// Executor is the central-execution surface the query server drives: the
// in-process cluster (ShardedEngine, or NewEngine's Engine for one shard)
// and the multi-process coordinator (internal/coord) satisfy it.
type Executor interface {
	StartQuery(p Plan, emit EmitFunc) error
	HandleBatch(b transport.TupleBatch)
	Tick(nowNanos int64)
	StopQuery(id uint64) (transport.QueryStats, bool)
	Stats(id uint64) (transport.QueryStats, bool)
}

var (
	_ Executor = (*Engine)(nil)
	_ Executor = (*ShardedEngine)(nil)
)

// ShardedEngine is the one in-process executor: a Merger over direct clients
// to n kernels, window state merged across shards at close; the result does
// not depend on n. Deployments run n = 1; n ≥ 2 is the coordinator's test
// double (the differential oracle, scrubbench's central-sharded, tests).
type ShardedEngine struct {
	*Merger
	shards []ShardClient
}

// NewShardedEngine creates an engine with n shards and default Options.
func NewShardedEngine(n int) (*ShardedEngine, error) {
	return NewShardedEngineWith(n, Options{})
}

// NewShardedEngineWith creates an engine with n shards (n >= 1).
func NewShardedEngineWith(n int, opt Options) (*ShardedEngine, error) {
	if n < 1 {
		return nil, fmt.Errorf("central: shard count must be >= 1, got %d", n)
	}
	se := &ShardedEngine{Merger: NewMerger(opt)}
	for i := 0; i < n; i++ {
		// All the shards charge their open windows to the one set of state
		// gauges the registry has.
		se.shards = append(se.shards, directShard{NewShardEngine(opt.Metrics)})
	}
	return se, nil
}

// NewEngine returns a single-node executor with default Options.
func NewEngine() *Engine { return NewEngineWith(Options{}) }

// NewEngineWith returns a single-node executor: the n = 1 cluster, handed
// out as its one kernel so that callers can reach the driven surface too.
func NewEngineWith(opt Options) *Engine {
	e := NewShardEngine(opt.Metrics)
	e.cluster = &ShardedEngine{Merger: NewMerger(opt), shards: []ShardClient{directShard{e}}}
	return e
}

// The Executor surface of a single-node Engine is its one-shard cluster's,
// method for method.
func (e *Engine) StartQuery(p Plan, emit EmitFunc) error { return e.cluster.StartQuery(p, emit) }
func (e *Engine) HandleBatch(b transport.TupleBatch)     { e.cluster.HandleBatch(b) }
func (e *Engine) Tick(nowNanos int64)                    { e.cluster.Tick(nowNanos) }
func (e *Engine) StopQuery(id uint64) (transport.QueryStats, bool) {
	return e.cluster.StopQuery(id)
}
func (e *Engine) Stats(id uint64) (transport.QueryStats, bool) { return e.cluster.Stats(id) }

// StartQuery implements Executor.
func (se *ShardedEngine) StartQuery(p Plan, emit EmitFunc) error {
	qr, err := CompileQuery(p)
	if err != nil {
		return err
	}
	return se.Start(qr, emit, se.shards, Install{})
}

// HandleBatch implements Executor.
func (se *ShardedEngine) HandleBatch(b transport.TupleBatch) { se.Ingest(b) }

// StopQuery implements Executor.
func (se *ShardedEngine) StopQuery(id uint64) (transport.QueryStats, bool) {
	return se.Stop(id, nil)
}

// directShard is the ShardClient over an in-process kernel. Closed
// window state changes hands as it is — nothing is serialized — and no
// call can fail, so the shard is never down.
type directShard struct{ eng *Engine }

func (d directShard) Start(qr *QueryRuntime) error { return d.eng.start(qr) }

func (d directShard) Apply(b transport.TupleBatch) (DrivenAck, bool, error) {
	ack, known := d.eng.ApplyDriven(b)
	return ack, known, nil
}

func (d directShard) Collect(qr *QueryRuntime, bound int64) ([]window.Closed[PartialWindow], error) {
	return d.windows(qr, bound, false), nil
}

func (d directShard) Stop(qr *QueryRuntime) ([]window.Closed[PartialWindow], error) {
	return d.windows(qr, 0, true), nil
}

func (d directShard) windows(qr *QueryRuntime, bound int64, drain bool) []window.Closed[PartialWindow] {
	closed, _, _, _, _ := d.eng.collectDriven(qr.plan.QueryID, bound, drain)
	var out []window.Closed[PartialWindow]
	for _, c := range closed {
		out = append(out, window.Closed[PartialWindow]{Start: c.Start, End: c.End, State: PartialWindow{ws: c.State}})
	}
	return out
}

func (d directShard) TuplesIn(id uint64) (uint64, bool) { return d.eng.TuplesIn(id) }

func (d directShard) Down() bool { return false }
