package central_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// The equivalence table: identical batches through the cluster of one
// shard (central.Engine) and through clusters of 2, 4 and 8 of each client
// kind — ShardedEngine (direct calls, window state handed over as it is)
// and a coordinator over transport.Pipe shard nodes (RPC, window state
// serialized) — must render the same windows. One executor serves them
// all, so what the table proves is shard-count invariance (split, route,
// merge) and that the two ShardClients are interchangeable; absolute
// close and late-drop behaviour is pinned by engine_test.go,
// liveness_test.go and replay_test.go, and by the differential oracle.

func secs(n int64) int64 { return n * int64(time.Second) }

// catalog is the internal tests' catalog (engine_test.go), rebuilt here:
// this file imports internal/coord, which imports this package, so it
// lives in the external test package and cannot share their helpers.
func catalog() *event.Catalog {
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "exchange_id", Kind: event.KindInt},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
	))
	cat.MustRegister(event.MustSchema("exclusion",
		event.FieldDef{Name: "line_item_id", Kind: event.KindInt},
		event.FieldDef{Name: "reason", Kind: event.KindString},
	))
	return cat
}

func plan(t *testing.T, src string) central.Plan {
	t.Helper()
	q, err := ql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := ql.Analyze(q, catalog())
	if err != nil {
		t.Fatal(err)
	}
	p := central.FromPlan(qp, 1, 0, 0, 1, 1)
	p.Text = src // shard nodes re-analyze the text
	return p
}

type windows struct{ wins []transport.ResultWindow }

func (w *windows) emit(rw transport.ResultWindow) { w.wins = append(w.wins, rw) }

// pipeCluster is a coordinator whose merger reaches n shard nodes by RPC.
func pipeCluster(n int) *coord.Coordinator {
	c := coord.NewCoordinator(coord.Options{})
	for i := 0; i < n; i++ {
		cc, cs := transport.Pipe()
		go coord.NewShardNode(catalog()).ServeConn(cs)
		c.AddShardConn(cc, fmt.Sprintf("shard-%d", i))
	}
	return c
}

// scenario is one row of the table.
type scenario struct {
	src     string
	batches []transport.TupleBatch
	tickAt  int64
}

// run feeds the scenario into ex and returns what it emitted.
func (sc scenario) run(t *testing.T, ex central.Executor, eachBatch func(fed, orig transport.TupleBatch)) []transport.ResultWindow {
	t.Helper()
	c := &windows{}
	p := plan(t, sc.src)
	// Ample lateness: the equivalence subject is the cross-shard merge,
	// not watermark behavior, and the synthetic feeding order (hosts
	// appearing one after another with full time ranges) would trip
	// event-driven closing — real agents heartbeat from the start, so
	// their streams anchor the min-watermark early.
	p.Lateness = time.Hour
	if err := ex.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	for _, b := range sc.batches {
		// Deep-copy: engines share nothing.
		fed := transport.CloneBatch(b)
		ex.HandleBatch(fed)
		if eachBatch != nil {
			eachBatch(fed, b)
		}
	}
	if sc.tickAt != 0 {
		ex.Tick(sc.tickAt)
	}
	ex.StopQuery(1)
	return c.wins
}

// runAll feeds identical batches into the cluster of one and into a
// cluster of each client kind at every shard count, flushed the same way,
// checks the clusters against the one and returns its windows.
func runAll(t *testing.T, sc scenario) []transport.ResultWindow {
	t.Helper()
	single := sc.run(t, central.NewEngine(), nil)
	for _, shards := range []int{2, 4, 8} {
		se, err := central.NewShardedEngine(shards)
		if err != nil {
			t.Fatal(err)
		}
		pc := pipeCluster(shards)
		windowsEqual(t, fmt.Sprintf("direct/%d", shards), single, sc.run(t, se, nil))
		windowsEqual(t, fmt.Sprintf("rpc/%d", shards), single, sc.run(t, pc, nil))
		pc.Close()
	}
	return single
}

// windowsEqual compares result sets window by window.
func windowsEqual(t *testing.T, arm string, single, sharded []transport.ResultWindow) {
	t.Helper()
	if len(single) != len(sharded) {
		t.Fatalf("%s: window counts differ: single %d, sharded %d", arm, len(single), len(sharded))
	}
	for i := range single {
		a, b := single[i], sharded[i]
		if a.WindowStart != b.WindowStart || a.WindowEnd != b.WindowEnd {
			t.Errorf("%s: window %d bounds differ: [%d,%d) vs [%d,%d)", arm, i, a.WindowStart, a.WindowEnd, b.WindowStart, b.WindowEnd)
		}
		if !rowsAlmostEqual(a.Rows, b.Rows) {
			t.Errorf("%s: window %d rows differ:\n single:  %v\n sharded: %v", arm, i, a.Rows, b.Rows)
		}
		if a.Stats.TuplesIn != b.Stats.TuplesIn {
			t.Errorf("%s: window %d tuples differ: %d vs %d", arm, i, a.Stats.TuplesIn, b.Stats.TuplesIn)
		}
	}
}

// rowsAlmostEqual compares result rows, allowing last-ulp float drift:
// merging partial sums across shards reassociates floating-point
// addition, which legitimately perturbs SUM/AVG in the ~1e-15 relative
// range.
func rowsAlmostEqual(a, b [][]event.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			fx, okx := x.AsFloat()
			fy, oky := y.AsFloat()
			if okx && oky {
				diff := fx - fy
				if diff < 0 {
					diff = -diff
				}
				scale := 1.0
				if fx > scale {
					scale = fx
				} else if -fx > scale {
					scale = -fx
				}
				if diff > 1e-9*scale {
					return false
				}
				continue
			}
			if !reflect.DeepEqual(x, y) {
				return false
			}
		}
	}
	return true
}

func groupedScenario() scenario {
	// Random grouped workload (mergeable aggregates make the merge exact).
	rng := rand.New(rand.NewSource(42))
	var batches []transport.TupleBatch
	req := uint64(0)
	for b := 0; b < 20; b++ {
		tuples := make([]transport.Tuple, 64)
		for i := range tuples {
			req++
			tuples[i] = transport.Tuple{
				RequestID: req,
				TsNanos:   secs(int64(rng.Intn(50))) + 1,
				Values: []event.Value{
					event.Int(int64(rng.Intn(20))),
					event.Float(rng.Float64() * 10),
				},
			}
		}
		batches = append(batches, transport.TupleBatch{
			QueryID: 1, HostID: fmt.Sprintf("h%d", b%4), TypeIdx: 0, Tuples: tuples,
		})
	}
	return scenario{`select bid.user_id, count(*), sum(bid.bid_price), avg(bid.bid_price), min(bid.bid_price), max(bid.bid_price)
		from bid group by bid.user_id window 10s`, batches, secs(200)}
}

func joinScenario() scenario {
	// Join routing: both sides of a request land on one shard, so join
	// results do not depend on the shard count.
	rng := rand.New(rand.NewSource(7))
	var batches []transport.TupleBatch
	for b := 0; b < 10; b++ {
		var bids, excls []transport.Tuple
		for i := 0; i < 40; i++ {
			req := uint64(b*100 + i)
			ts := secs(int64(rng.Intn(30))) + 1
			bids = append(bids, transport.Tuple{RequestID: req, TsNanos: ts})
			if rng.Intn(2) == 0 {
				excls = append(excls, transport.Tuple{RequestID: req, TsNanos: ts,
					Values: []event.Value{event.Str([]string{"budget", "geo", "freq"}[rng.Intn(3)])}})
			}
		}
		batches = append(batches,
			transport.TupleBatch{QueryID: 1, HostID: "bid-h", TypeIdx: 0, Tuples: bids},
			transport.TupleBatch{QueryID: 1, HostID: "ad-h", TypeIdx: 1, Tuples: excls},
		)
	}
	return scenario{`select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 10s`, batches, secs(100)}
}

func rawScenario() scenario {
	var tuples []transport.Tuple
	for i := 0; i < 50; i++ {
		tuples = append(tuples, transport.Tuple{
			RequestID: uint64(i + 1), TsNanos: secs(1),
			Values: []event.Value{event.Int(int64(i)), event.Float(float64(i % 13))},
		})
	}
	batches := []transport.TupleBatch{{QueryID: 1, HostID: "h", TypeIdx: 0, Tuples: tuples}}
	return scenario{`select bid.user_id, bid.bid_price from bid order by 2 desc, 1 limit 5 window 10s`, batches, secs(100)}
}

func TestShardedEquivalenceGrouped(t *testing.T) {
	if single := runAll(t, groupedScenario()); len(single) == 0 {
		t.Fatal("no windows emitted")
	}
}

func TestShardedEquivalenceJoin(t *testing.T) { runAll(t, joinScenario()) }

func TestShardedEquivalenceRawOrderLimit(t *testing.T) {
	single := runAll(t, rawScenario())
	if len(single) != 1 || len(single[0].Rows) != 5 {
		t.Fatalf("rows = %+v", single)
	}
}

// handThrough is a ShardClient that shows what Apply was handed.
type handThrough struct {
	central.ShardClient // Down and Apply are all RouteToShards calls
	applied             func(first *transport.Tuple)
}

func (h handThrough) Down() bool { return false }

func (h handThrough) Apply(b transport.TupleBatch) (central.DrivenAck, bool, error) {
	h.applied(&b.Tuples[0])
	return central.DrivenAck{}, true, nil
}

// TestEngineIsOneShardCluster pins what "Engine is the n = 1 cluster"
// costs and means (that no window is ever merged is checked in-package,
// by the grouped, raw and join engine tests): the route step hands the
// shard the caller's own tuples — no copy, no allocation, nothing wiped
// behind the caller's back — and the executor's running tuple count is
// the kernel's.
func TestEngineIsOneShardCluster(t *testing.T) {
	heartbeat := transport.TupleBatch{QueryID: 1, HostID: "h0", TypeIdx: 0, MatchedTotal: 7, SampledTotal: 7}
	for name, sc := range map[string]scenario{"grouped": groupedScenario(), "join": joinScenario(), "raw": rawScenario()} {
		mid := len(sc.batches) / 2
		sc.batches = append(append(append([]transport.TupleBatch{}, sc.batches[:mid]...), heartbeat), sc.batches[mid:]...)

		e := central.NewEngine()
		wins := sc.run(t, e, func(fed, orig transport.TupleBatch) {
			if !reflect.DeepEqual(fed.Tuples, transport.CloneBatch(orig).Tuples) {
				t.Fatalf("%s: HandleBatch changed the caller's tuples", name)
			}
			st, ok := e.Stats(1)
			kernel, running := e.TuplesIn(1)
			if !ok || !running || st.TuplesIn != kernel {
				t.Fatalf("%s: Stats().TuplesIn = %d (ok=%v), the kernel has applied %d (running=%v)", name, st.TuplesIn, ok, kernel, running)
			}
		})
		if len(wins) == 0 {
			t.Errorf("%s: no windows", name)
		}

		var scratch central.RouteScratch
		var fed transport.TupleBatch
		shards := []central.ShardClient{handThrough{applied: func(first *transport.Tuple) {
			if first != &fed.Tuples[0] {
				t.Errorf("%s: the shard was handed a copy of the batch's tuples", name)
			}
		}}}
		for _, b := range sc.batches {
			fed = transport.CloneBatch(b)
			var man transport.BatchManifest
			if n := testing.AllocsPerRun(10, func() { man = central.RouteToShards(fed, shards, &scratch) }); n != 0 {
				t.Errorf("%s: one-shard RouteToShards allocates %v times per batch", name, n)
			}
			if man.RawTuples != uint64(len(b.Tuples)) {
				t.Errorf("%s: manifest %+v for a batch of %d", name, man, len(b.Tuples))
			}
			if !reflect.DeepEqual(fed.Tuples, transport.CloneBatch(b).Tuples) {
				t.Errorf("%s: RouteToShards changed the caller's tuples", name)
			}
		}
	}
}
