package difftest

import (
	"fmt"
	"math"
	"slices"
	"time"

	"scrub/internal/central"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/oracle"
	"scrub/internal/transport"
)

// Arm is what one executor arm emitted, in emit order, and its final
// query stats.
type Arm struct {
	Name    string
	Windows []transport.ResultWindow
	Stats   transport.QueryStats
}

// Step is one move of a Schedule. Every arm's clock reads Clock from this
// step on; Batch, when set, goes to every arm; then, when Tick is set,
// every arm ticks at TickAt.
type Step struct {
	Batch  *transport.TupleBatch
	Clock  int64
	Tick   bool
	TickAt int64
}

// Schedule is the one sequence of batches and ticks every arm sees, and
// the stream lease every arm grants.
type Schedule struct {
	Steps    []Step
	LeaseTTL time.Duration
}

// Arms runs plan over sched through every executor arm and returns them
// in this order: "engine", the cluster of one; "sharded", the same
// executor at shards kernels; "pipe", coordinator, shard nodes and a
// host-side router over the pipe transport through the wire codec (2
// shard nodes below 4 shards, else 4); "failover", that fabric under a
// replicating leader that dies before the middle batch. It holds the
// sharded and pipe arms to the engine's windows and stats (contracts D
// and D′), and the failover arm to D″; the arms come back with a
// violation once the query has stopped. plan.Text must be set: the shard
// nodes analyze the query themselves.
func Arms(plan central.Plan, cat func() *event.Catalog, sched Schedule, shards int) ([]Arm, error) {
	var now int64
	opts := central.Options{Clock: func() time.Time { return time.Unix(0, now) }, LeaseTTL: sched.LeaseTTL}
	procs := 2
	if shards >= 4 {
		procs = 4
	}
	sh, err := central.NewShardedEngineWith(shards, opts)
	if err != nil {
		return nil, err
	}
	topo := newPipeTopology(coord.NewCoordinator(opts), procs, cat)
	defer topo.close()
	fo := newFailoverTopology(procs, opts, cat)
	defer fo.close()
	executors := []central.Executor{central.NewEngineWith(opts), sh, topo, fo}
	arms := []Arm{{Name: "engine"}, {Name: "sharded"}, {Name: "pipe"}, {Name: "failover"}}
	for i, x := range executors {
		a := &arms[i]
		if err := x.StartQuery(plan, func(rw transport.ResultWindow) { a.Windows = append(a.Windows, rw) }); err != nil {
			return nil, fmt.Errorf("%s arm: %v", a.Name, err)
		}
	}

	batches := 0
	for _, st := range sched.Steps {
		if st.Batch != nil {
			batches++
		}
	}
	killAt := -1 // fewer than 4 batches: the leader runs the whole query
	if batches >= 4 {
		killAt = batches / 2
	}
	foPre, delivered := -1, 0 // foPre: windows the leader emitted before the kill
	for _, st := range sched.Steps {
		now = st.Clock
		if st.Batch != nil {
			if delivered == killAt {
				foPre = len(arms[3].Windows)
				if err := fo.failover(); err != nil {
					return nil, err
				}
			}
			delivered++
			for _, x := range executors {
				x.HandleBatch(transport.CloneBatch(*st.Batch))
			}
		}
		if st.Tick {
			for _, x := range executors {
				x.Tick(st.TickAt)
			}
		}
	}
	for i, x := range executors {
		var ok bool
		if arms[i].Stats, ok = x.StopQuery(plan.QueryID); !ok {
			return arms, fmt.Errorf("%s arm lost query %d at StopQuery", arms[i].Name, plan.QueryID)
		}
	}
	for i, t := range []*pipeTopology{topo, fo.pipeTopology} {
		if t.err != nil {
			return arms, fmt.Errorf("%s arm: %v", arms[2+i].Name, t.err)
		}
	}
	return arms, holdArms(arms, foPre, shards, procs)
}

// holdArms enforces contracts D, D′ and D″ on what Arms collected: the
// sharded and pipe arms emit the engine's windows and stats. So does the
// failover arm when its leader never died — replication, and fencing at
// term 1, may not perturb results — and otherwise it passes
// compareFailoverWindows. Every arm's windows also pass holdLateDrops.
func holdArms(arms []Arm, foPre, shards, procs int) error {
	for _, a := range arms {
		if err := holdLateDrops(a.Windows); err != nil {
			return fmt.Errorf("%s arm (%d shards, %d processes): %v", a.Name, shards, procs, err)
		}
	}
	eng, same := arms[0], arms[1:3]
	if foPre < 0 {
		same = arms[1:]
	}
	for _, a := range same {
		if err := CompareWindows(eng.Windows, a.Windows); err != nil {
			return fmt.Errorf("cross-engine divergence (engine vs %s arm, %d shards, %d processes): %v", a.Name, shards, procs, err)
		}
		if eng.Stats != a.Stats {
			return fmt.Errorf("cross-engine stats divergence (engine vs %s arm, %d shards, %d processes): %+v vs %+v",
				a.Name, shards, procs, eng.Stats, a.Stats)
		}
	}
	if foPre < 0 {
		return nil
	}
	if err := compareFailoverWindows(eng.Windows, arms[3].Windows, foPre); err != nil {
		return fmt.Errorf("failover divergence (engine vs promoted standby, %d-process): %v", procs, err)
	}
	return nil
}

// holdLateDrops holds each window's late total to its streams' total: a
// late drop is charged once, to the stream whose batch caused it, by
// that batch's manifest. A window's LateDrops also counts overflow (the
// raw-row and join-pending caps) and merge truncation, which no stream's
// LateDrops reports; difftest's plans reach neither maxRawRows (100 000)
// nor maxJoinPending (2²⁰), so here the two sums are equal.
func holdLateDrops(ws []transport.ResultWindow) error {
	for _, w := range ws {
		var sum uint64
		for _, s := range w.Streams {
			sum += s.LateDrops
		}
		if w.Stats.LateDrops != sum {
			return fmt.Errorf("window [%d,%d): LateDrops %d, its streams' sum %d", w.WindowStart, w.WindowEnd, w.Stats.LateDrops, sum)
		}
	}
	return nil
}

// CompareWindows enforces contract D window by window, including the
// degradation accounting a consumer acts on: the same spans, flags, stats
// and per-stream counters, and the same rows and bounds, floats to
// oracle.FloatsClose.
func CompareWindows(ew, sw []transport.ResultWindow) error {
	if len(ew) != len(sw) {
		return fmt.Errorf("window count: %d vs %d", len(ew), len(sw))
	}
	for i, a := range ew {
		if err := compareWindow(a, sw[i]); err != nil {
			return fmt.Errorf("window %d [%d,%d): %v", i, a.WindowStart, a.WindowEnd, err)
		}
	}
	return nil
}

func compareWindow(a, b transport.ResultWindow) error {
	switch {
	case a.WindowStart != b.WindowStart || a.WindowEnd != b.WindowEnd:
		return fmt.Errorf("span vs [%d,%d)", b.WindowStart, b.WindowEnd)
	case len(a.Columns) != len(b.Columns):
		return fmt.Errorf("columns %v vs %v", a.Columns, b.Columns)
	case a.Approx != b.Approx || a.Degraded != b.Degraded || a.BudgetShed != b.BudgetShed:
		return fmt.Errorf("flags: approx %v/%v degraded %v/%v shed %v/%v",
			a.Approx, b.Approx, a.Degraded, b.Degraded, a.BudgetShed, b.BudgetShed)
	case a.Stats != b.Stats:
		return fmt.Errorf("stats %+v vs %+v", a.Stats, b.Stats)
	case !slices.Equal(a.Streams, b.Streams):
		return fmt.Errorf("streams %+v vs %+v", a.Streams, b.Streams)
	case !slices.EqualFunc(a.ErrBounds, b.ErrBounds, boundsClose):
		return fmt.Errorf("bounds %v vs %v", a.ErrBounds, b.ErrBounds)
	case len(a.Rows) != len(b.Rows):
		return fmt.Errorf("%d rows vs %d\n  %v\n  %v", len(a.Rows), len(b.Rows), a.Rows, b.Rows)
	}
	for r := range a.Rows {
		if !slices.EqualFunc(a.Rows[r], b.Rows[r], oracle.ValuesClose) {
			return fmt.Errorf("row %d: %v vs %v", r, a.Rows[r], b.Rows[r])
		}
	}
	return nil
}

func boundsClose(x, y float64) bool {
	return math.IsNaN(x) == math.IsNaN(y) && (math.IsNaN(x) || oracle.FloatsClose(x, y))
}

// compareFailoverWindows enforces contract D″: windows the leader
// emitted before its kill are the engine's prefix, and the promoted
// standby's windows afterwards are an ordered subsequence of the engine's
// remaining spans, every one honestly flagged Degraded. Rows are not
// compared after the kill: the promoted coordinator rebuilds its
// watermark from post-kill manifests only, so a stream that went quiet
// before the kill no longer holds the minimum back, stragglers' tuples can
// drop late at the shards, and a window whose every tuple dropped that
// way never materializes. The subsequence and the flag are what takeover
// guarantees.
func compareFailoverWindows(ew, fw []transport.ResultWindow, pre int) error {
	if pre > len(fw) || pre > len(ew) {
		return fmt.Errorf("pre-kill window count %d exceeds emitted (engine %d, failover %d)", pre, len(ew), len(fw))
	}
	if err := CompareWindows(ew[:pre], fw[:pre]); err != nil {
		return fmt.Errorf("pre-kill prefix: %v", err)
	}
	j := pre
	for _, w := range fw[pre:] {
		if !w.Degraded {
			return fmt.Errorf("post-failover window [%d,%d) not flagged Degraded", w.WindowStart, w.WindowEnd)
		}
		for j < len(ew) && (ew[j].WindowStart != w.WindowStart || ew[j].WindowEnd != w.WindowEnd) {
			j++
		}
		if j == len(ew) {
			return fmt.Errorf("post-failover window [%d,%d) has no Engine counterpart in order", w.WindowStart, w.WindowEnd)
		}
		j++
	}
	return nil
}
