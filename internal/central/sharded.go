package central

import (
	"fmt"

	"scrub/internal/transport"
	"scrub/internal/window"
)

// Executor is the central-execution surface the query server drives: the
// single-node Engine, the in-process ShardedEngine and the multi-process
// coordinator (internal/coord) all satisfy it.
type Executor interface {
	StartQuery(p Plan, emit EmitFunc) error
	HandleBatch(b transport.TupleBatch)
	Tick(nowNanos int64)
	StopQuery(id uint64) (transport.QueryStats, bool)
	Stats(id uint64) (transport.QueryStats, bool)
	ActiveQueries() []uint64
}

var (
	_ Executor = (*Engine)(nil)
	_ Executor = (*ShardedEngine)(nil)
)

// ShardedEngine is a ScrubCentral cluster in one process: a Merger over
// direct clients to n driven Engines. Window state is merged across
// shards at window close through the mergeable aggregators, then rendered
// exactly like the single-node engine (scale-up, bounds, HAVING, ORDER BY,
// LIMIT).
type ShardedEngine struct {
	*Merger
	met    *centralMetrics // whole-batch ingest; shards keep private nil metrics
	shards []ShardClient
}

// NewShardedEngine creates an engine with n shards (n >= 1) and default
// Options.
func NewShardedEngine(n int) (*ShardedEngine, error) {
	return NewShardedEngineWith(n, Options{})
}

// NewShardedEngineWith creates an engine with n shards (n >= 1).
func NewShardedEngineWith(n int, opt Options) (*ShardedEngine, error) {
	if n < 1 {
		return nil, fmt.Errorf("central: shard count must be >= 1, got %d", n)
	}
	se := &ShardedEngine{Merger: NewMerger(opt), met: newCentralMetrics(opt.Metrics)}
	for i := 0; i < n; i++ {
		// All the shards charge their open windows to the one set of state
		// gauges the registry has.
		se.shards = append(se.shards, directShard{NewShardEngine(se.opt, opt.Metrics)})
	}
	return se, nil
}

// StartQuery implements Executor.
func (se *ShardedEngine) StartQuery(p Plan, emit EmitFunc) error {
	qr, err := CompileQuery(p)
	if err != nil {
		return err
	}
	return se.Start(qr, emit, se.shards, Install{})
}

// HandleBatch implements Executor.
func (se *ShardedEngine) HandleBatch(b transport.TupleBatch) {
	if se.Ingest(b) {
		se.met.count(len(b.Tuples))
	}
}

// StopQuery implements Executor.
func (se *ShardedEngine) StopQuery(id uint64) (transport.QueryStats, bool) {
	return se.Stop(id, nil)
}

// directShard is the ShardClient over an in-process driven Engine. Closed
// window state changes hands as it is — nothing is serialized — and no
// call can fail, so the shard is never down.
type directShard struct{ eng *Engine }

func (d directShard) Start(qr *QueryRuntime) error { return d.eng.StartDriven(qr.plan) }

func (d directShard) Apply(b transport.TupleBatch) (DrivenAck, bool, error) {
	ack, known := d.eng.ApplyDriven(b)
	return ack, known, nil
}

func (d directShard) Collect(qr *QueryRuntime, bound int64) (ShardWindows, error) {
	return d.windows(qr, bound, false), nil
}

func (d directShard) Stop(qr *QueryRuntime) (ShardWindows, error) {
	return d.windows(qr, 0, true), nil
}

func (d directShard) windows(qr *QueryRuntime, bound int64, drain bool) ShardWindows {
	closed, _, late, overflow, ok := d.eng.collectDriven(qr.plan.QueryID, bound, drain)
	sw := ShardWindows{Found: ok, Late: late, Overflow: overflow}
	for _, c := range closed {
		c.State.thaw(&qr.plan) // the merger merges and renders live state
		sw.Windows = append(sw.Windows, window.Closed[PartialWindow]{Start: c.Start, End: c.End, State: PartialWindow{ws: c.State}})
	}
	return sw
}

func (d directShard) TuplesIn(id uint64) (uint64, bool) {
	st, ok := d.eng.Stats(id)
	return st.TuplesIn, ok
}

func (d directShard) Down() bool { return false }
