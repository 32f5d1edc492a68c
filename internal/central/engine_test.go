package central

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// buildPlan parses + analyzes a query against the test catalog and builds
// a central plan for it.
func buildPlan(t testing.TB, src string, queryID uint64, totalHosts, sampledHosts int) Plan {
	t.Helper()
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
	q, err := ql.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p, err := ql.Analyze(q, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return FromPlan(p, queryID, 0, 0, totalHosts, sampledHosts)
}

// collector gathers emitted windows.
type collector struct {
	mu   sync.Mutex
	wins []transport.ResultWindow
}

func (c *collector) emit(rw transport.ResultWindow) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wins = append(c.wins, rw)
}

func (c *collector) all() []transport.ResultWindow {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]transport.ResultWindow(nil), c.wins...)
}

func sec(n int64) int64 { return n * int64(time.Second) }

// batch builds a TupleBatch of bid tuples: each entry is (reqID, ts,
// values...).
func bidBatch(queryID uint64, host string, tuples ...transport.Tuple) transport.TupleBatch {
	return transport.TupleBatch{QueryID: queryID, HostID: host, TypeIdx: 0, Tuples: tuples}
}

func tup(req uint64, ts int64, vals ...event.Value) transport.Tuple {
	return transport.Tuple{RequestID: req, TsNanos: ts, Values: vals}
}

func TestStartQueryValidation(t *testing.T) {
	e := NewEngine()
	p := buildPlan(t, `select count(*) from bid`, 1, 1, 1)
	if err := e.StartQuery(p, nil); err == nil {
		t.Error("nil emit should fail")
	}
	bad := p
	bad.QueryID = 0
	if err := e.StartQuery(bad, func(transport.ResultWindow) {}); err == nil {
		t.Error("zero query id should fail")
	}
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatalf("valid start: %v", err)
	}
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err == nil {
		t.Error("duplicate id should fail")
	}
	if _, ok := e.Stats(1); !ok {
		t.Error("query 1 not running")
	}
}

func TestGroupedCountOverWindows(t *testing.T) {
	// The paper's spam query: COUNT(*) grouped by user in 10s windows.
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select bid.user_id, count(*) from bid group by bid.user_id window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	// Window [0,10): user 42 ×3, user 7 ×1. Window [10,20): user 42 ×1.
	e.HandleBatch(bidBatch(1, "h1",
		tup(1, sec(1), event.Int(42)),
		tup(2, sec(2), event.Int(42)),
		tup(3, sec(3), event.Int(7)),
		tup(4, sec(9), event.Int(42)),
	))
	// Crossing into [10,20) and then beyond closes earlier windows (a
	// default plan's slack is one slide, at most 2s: event at 22s closes
	// [0,10)).
	e.HandleBatch(bidBatch(1, "h1", tup(5, sec(15), event.Int(42))))
	e.HandleBatch(bidBatch(1, "h1", tup(6, sec(25), event.Int(1))))

	// Watermark 25s − 2s slack = 23s closes both [0,10) and [10,20).
	wins := c.all()
	if len(wins) != 2 {
		t.Fatalf("emitted %d windows, want 2", len(wins))
	}
	if n := e.cluster.Merges(); n != 0 {
		t.Errorf("the one-shard cluster merged %d partials", n)
	}
	w := wins[0]
	if w.WindowStart != 0 || w.WindowEnd != sec(10) {
		t.Errorf("window = [%d, %d)", w.WindowStart, w.WindowEnd)
	}
	if len(w.Rows) != 2 {
		t.Fatalf("rows = %v", w.Rows)
	}
	// Sorted deterministically; find user 42.
	counts := map[string]string{}
	for _, row := range w.Rows {
		counts[row[0].String()] = row[1].String()
	}
	if counts["42"] != "3" || counts["7"] != "1" {
		t.Errorf("counts = %v", counts)
	}
	if w.Approx {
		t.Error("unsampled query should not be approximate")
	}
	if w.Stats.TuplesIn != 4 || w.Stats.HostsReporting != 1 {
		t.Errorf("stats = %+v", w.Stats)
	}
}

func TestUngroupedAggregateEmitsSingleRow(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*), sum(bid.bid_price), avg(bid.bid_price) from bid window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1",
		tup(1, sec(1), event.Float(1.0)),
		tup(2, sec(2), event.Float(3.0)),
	))
	e.Tick(sec(30))
	wins := c.all()
	if len(wins) != 1 || len(wins[0].Rows) != 1 {
		t.Fatalf("wins = %+v", wins)
	}
	row := wins[0].Rows[0]
	if row[0].String() != "2" || row[1].String() != "4" || row[2].String() != "2" {
		t.Errorf("row = %v", row)
	}
}

func TestEmptyWindowEmitsZeroCountRow(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(1))))
	// Skip a window entirely, then tick far ahead: [0,10) has the tuple;
	// nothing was opened for [10,20) so only one window exists to emit.
	e.Tick(sec(60))
	wins := c.all()
	if len(wins) != 1 {
		t.Fatalf("wins = %d", len(wins))
	}
	if wins[0].Rows[0][0].String() != "1" {
		t.Errorf("row = %v", wins[0].Rows[0])
	}
	// Stop with an open empty window → still emits a zero row.
	e.HandleBatch(bidBatch(1, "h1")) // counters only
	_, ok := e.StopQuery(1)
	if !ok {
		t.Fatal("StopQuery missed")
	}
}

func TestScaleUpUnderSampling(t *testing.T) {
	// 2 of 4 hosts, 50% events: factor = (4/2)·(1/0.5) = 4.
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*), sum(bid.bid_price) from bid window 10s sample hosts 50% events 50%`, 1, 4, 2)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(1), event.Float(2)), tup(2, sec(2), event.Float(2))))
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h2", TypeIdx: 0,
		Tuples: []transport.Tuple{tup(3, sec(3), event.Float(2)), tup(4, sec(4), event.Float(2))}})
	e.Tick(sec(30))
	wins := c.all()
	if len(wins) != 1 {
		t.Fatalf("wins = %d", len(wins))
	}
	w := wins[0]
	if !w.Approx {
		t.Error("sampled query should be approximate")
	}
	row := w.Rows[0]
	if row[0].String() != "16" { // 4 tuples × factor 4
		t.Errorf("scaled count = %v", row[0])
	}
	if row[1].String() != "32" { // sum 8 × factor 4
		t.Errorf("scaled sum = %v", row[1])
	}
	if len(w.ErrBounds) != 2 {
		t.Fatalf("bounds = %v", w.ErrBounds)
	}
	for i, b := range w.ErrBounds {
		if math.IsNaN(b) {
			t.Errorf("bound[%d] is NaN, want finite", i)
		}
	}
}

// TestEstimatorCountsEverySampledHost: in Eq. 1–3 a sampled host with no
// matching event in the window is a zero among the n sampled hosts, not a
// host left out of n. The plan names n: a window sees only the hosts that
// reported.
func TestEstimatorCountsEverySampledHost(t *testing.T) {
	run := func(t *testing.T, src string, total, sampled int, batches ...transport.TupleBatch) transport.ResultWindow {
		t.Helper()
		e := NewEngine()
		c := &collector{}
		if err := e.StartQuery(buildPlan(t, src, 1, total, sampled), c.emit); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			e.HandleBatch(b)
		}
		e.Tick(sec(30))
		wins := c.all()
		if len(wins) != 1 {
			t.Fatalf("wins = %d", len(wins))
		}
		return wins[0]
	}
	tuples := func(n int) []transport.Tuple {
		out := make([]transport.Tuple, n)
		for i := range out {
			out[i] = tup(uint64(i), sec(1))
		}
		return out
	}
	t.Run("governed sparse count", func(t *testing.T) {
		// Four hosts run the query and two match: h1 ships its 10 events,
		// h2 ships 10 of its 20 at the governor's rate 0.5. The count is 30.
		h1 := bidBatch(1, "h1", tuples(10)...)
		h1.EffRate = 1
		h2 := bidBatch(1, "h2", tuples(10)...)
		h2.EffRate = 0.5
		w := run(t, `select count(*) from bid window 10s`, 4, 4, h1, h2)
		if got := w.Rows[0][0].String(); got != "30" {
			t.Errorf("count = %s, want 30 (bound %v)", got, w.ErrBounds)
		}
	})
	t.Run("governed sparse count, grouped", func(t *testing.T) {
		// The same events under GROUP BY: the groups sum to the same 30.
		keyed := func(host string, rate float64) transport.TupleBatch {
			b := bidBatch(1, host)
			for i := range 10 {
				b.Tuples = append(b.Tuples, tup(uint64(i), sec(1), event.Int(int64(i%3))))
			}
			b.EffRate = rate
			return b
		}
		w := run(t, `select exchange_id, count(*) from bid group by exchange_id window 10s`, 4, 4,
			keyed("h1", 1), keyed("h2", 0.5))
		var sum int64
		for _, row := range w.Rows {
			n, _ := row[1].AsInt()
			sum += n
		}
		if sum != 30 || !w.Approx {
			t.Errorf("Σ count = %d (approx %v) over %v, want 30, approximate", sum, w.Approx, w.Rows)
		}
	})
	t.Run("host-sampled window with one reporter", func(t *testing.T) {
		// Four of eight hosts sampled, one of them matches: the scale-up
		// is 2, and the bound is that of four hosts, one non-zero.
		w := run(t, `select count(*) from bid window 10s sample hosts 50%`, 8, 4, bidBatch(1, "h1", tuples(10)...))
		if got := w.Rows[0][0].String(); got != "20" {
			t.Errorf("count = %s, want 20", got)
		}
		if len(w.ErrBounds) != 1 || math.IsInf(w.ErrBounds[0], 0) || math.IsNaN(w.ErrBounds[0]) {
			t.Errorf("bounds = %v, want one finite bound", w.ErrBounds)
		}
	})
}

func TestAvgNotScaled(t *testing.T) {
	governed := func(host string, rate float64, price float64) transport.TupleBatch {
		b := bidBatch(1, host, tup(1, sec(1), event.Float(price)))
		b.EffRate = rate
		return b
	}
	for _, tc := range []struct {
		name, query string
		batches     []transport.TupleBatch
		want        string
	}{
		// A uniform rate scales every reading alike: the mean is as read.
		{"sampled", `select avg(bid.bid_price) from bid window 10s sample events 10%`,
			[]transport.TupleBatch{bidBatch(1, "h1", tup(1, sec(1), event.Float(3)), tup(2, sec(2), event.Float(5)))}, "4"},
		// h2's reading stands for two events, h1's for one: (3 + 2·5)/3.
		{"governed", `select avg(bid.bid_price) from bid window 10s`,
			[]transport.TupleBatch{governed("h1", 1, 3), governed("h2", 0.5, 5)}, event.Float(13.0 / 3).String()},
	} {
		e := NewEngine()
		c := &collector{}
		if err := e.StartQuery(buildPlan(t, tc.query, 1, 1, 1), c.emit); err != nil {
			t.Fatal(err)
		}
		for _, b := range tc.batches {
			e.HandleBatch(b)
		}
		e.Tick(sec(30))
		if row := c.all()[0].Rows[0]; row[0].String() != tc.want {
			t.Errorf("%s: AVG = %v, want %s", tc.name, row[0], tc.want)
		}
	}
}

// TestTupleWeight: a tuple weighs its plan rate over its batch's, 1 to
// 64, whatever rate a batch off the wire states.
func TestTupleWeight(t *testing.T) {
	for _, tc := range []struct {
		q, rate float64
		want    uint64
	}{
		{1, 1, 1}, {1, 0.5, 2}, {0.5, 0.125, 4}, {1, 1.0 / 64, 64},
		{1, 0, 1}, {1, math.NaN(), 1}, {0.1, 1, 1}, {1, 1e-300, 64}, {1, math.Inf(1), 1},
	} {
		if got := tupleWeight(tc.q, tc.rate); got != tc.want {
			t.Errorf("tupleWeight(%g, %g) = %d, want %d", tc.q, tc.rate, got, tc.want)
		}
	}
}

// TestGovernedBatchWeightsItsTuples: a batch's tuples count by the rate
// they were sampled at — not by a rate their host reported later — and
// a grouped query scales them as an ungrouped one does.
func TestGovernedBatchWeightsItsTuples(t *testing.T) {
	at := func(host string, rate float64, n int, from int64, vals ...event.Value) transport.TupleBatch {
		b := bidBatch(1, host)
		for i := range n {
			b.Tuples = append(b.Tuples, tup(uint64(i), sec(from)+int64(i), vals...))
		}
		b.EffRate = rate
		return b
	}
	run := func(t *testing.T, src string, total int, batches ...transport.TupleBatch) []transport.ResultWindow {
		t.Helper()
		e := NewEngine()
		c := &collector{}
		if err := e.StartQuery(buildPlan(t, src, 1, total, total), c.emit); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			e.HandleBatch(b)
		}
		e.Tick(sec(60))
		return c.all()
	}
	t.Run("rate lowered before the window closes", func(t *testing.T) {
		// Four hosts each ship 10 tuples at rate 1 into [0, 10 s), then 5
		// at 0.5 into [10 s, 20 s), before the first window closes.
		var batches []transport.TupleBatch
		for h := range 4 {
			host := fmt.Sprintf("h%d", h)
			batches = append(batches, at(host, 1, 10, 0), at(host, 0.5, 5, 10))
		}
		wins := run(t, `select count(*) from bid window 10s`, 4, batches...)
		if len(wins) != 2 {
			t.Fatalf("wins = %d, want 2", len(wins))
		}
		if w := wins[0]; w.Rows[0][0].String() != "40" || w.Approx {
			t.Errorf("[0, 10 s) = %v ± %v (approx %v), want exactly 40", w.Rows[0][0], w.ErrBounds, w.Approx)
		}
		w := wins[1]
		if w.Rows[0][0].String() != "40" || !w.Approx {
			t.Errorf("[10 s, 20 s) = %v (approx %v), want 40, approximate", w.Rows[0][0], w.Approx)
		}
		if len(w.ErrBounds) != 1 || math.IsInf(w.ErrBounds[0], 0) || math.IsNaN(w.ErrBounds[0]) {
			t.Errorf("[10 s, 20 s) bounds = %v, want one finite bound", w.ErrBounds)
		}
	})
	t.Run("grouped and ungrouped agree", func(t *testing.T) {
		// Ten tuples shipped at rate 0.5 stand for twenty events, whether
		// or not the query groups them.
		for _, src := range []string{
			`select count(*) from bid window 10s`,
			`select exchange_id, count(*) from bid group by exchange_id window 10s`,
		} {
			wins := run(t, src, 1, at("h1", 0.5, 10, 0, event.Int(7)))
			if len(wins) != 1 || len(wins[0].Rows) != 1 {
				t.Fatalf("%s: windows %v, want one row", src, wins)
			}
			row := wins[0].Rows[0]
			if got := row[len(row)-1].String(); got != "20" || !wins[0].Approx {
				t.Errorf("%s: count(*) = %s (approx %v), want 20, approximate", src, got, wins[0].Approx)
			}
		}
	})
}

func TestArithmeticOverAggregate(t *testing.T) {
	// The paper's CPM query shape: 1000*AVG(cost).
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select 1000*avg(bid.bid_price) from bid window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(1), event.Float(0.002)), tup(2, sec(2), event.Float(0.004))))
	e.Tick(sec(30))
	row := c.all()[0].Rows[0]
	if got, _ := row[0].AsFloat(); math.Abs(got-3.0) > 1e-9 {
		t.Errorf("1000*AVG = %v", row[0])
	}
}

func TestRawRowsQuery(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select bid.user_id, bid.bid_price from bid window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1",
		tup(1, sec(1), event.Int(7), event.Float(1.5)),
		tup(2, sec(2), event.Int(8), event.Float(2.5)),
	))
	e.Tick(sec(30))
	wins := c.all()
	if len(wins) != 1 || len(wins[0].Rows) != 2 {
		t.Fatalf("wins = %+v", wins)
	}
	if wins[0].Rows[0][0].String() != "7" || wins[0].Rows[1][1].String() != "2.5" {
		t.Errorf("rows = %v", wins[0].Rows)
	}
	if n := e.cluster.Merges(); n != 0 {
		t.Errorf("the one-shard cluster merged %d partials", n)
	}
}

func TestJoinOnRequestID(t *testing.T) {
	// The paper's exclusion investigation: bid ⋈ exclusion per request.
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select exclusion.reason, count(*) from bid, exclusion
		where bid.exchange_id = 5
		group by exclusion.reason window 10s`, 1, 1, 1)
	// bid columns: exchange_id consumed by host pred... verify plan: the
	// host pred runs on hosts, so bid ships no columns; exclusion ships
	// reason.
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	// Request 1: bid + 2 exclusions → 2 joined rows.
	// Request 2: exclusion only → no join.
	// Request 3: bid then exclusion (order reversed) → 1 joined row.
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "bid-h", TypeIdx: 0,
		Tuples: []transport.Tuple{tup(1, sec(1))}})
	// Exclusion hosts ship exactly the plan's projected columns: [reason].
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "ad-h", TypeIdx: 1,
		Tuples: []transport.Tuple{
			tup(1, sec(1), event.Str("budget")),
			tup(1, sec(2), event.Str("frequency_cap")),
			tup(2, sec(2), event.Str("budget")),
			tup(3, sec(3), event.Str("budget")),
		}})
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "bid-h", TypeIdx: 0,
		Tuples: []transport.Tuple{tup(3, sec(4))}})
	e.Tick(sec(30))

	wins := c.all()
	if len(wins) != 1 {
		t.Fatalf("wins = %d", len(wins))
	}
	counts := map[string]string{}
	for _, row := range wins[0].Rows {
		counts[row[0].String()] = row[1].String()
	}
	if counts["budget"] != "2" || counts["frequency_cap"] != "1" {
		t.Errorf("join counts = %v", counts)
	}
	if w := wins[0]; w.Stats.HostsReporting != 2 {
		t.Errorf("hosts reporting = %d", w.Stats.HostsReporting)
	}
	if n := e.cluster.Merges(); n != 0 {
		t.Errorf("the one-shard cluster merged %d partials", n)
	}
}

func TestJoinCentralPredicate(t *testing.T) {
	// Cross-side conjunct evaluated at central after the join.
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid, exclusion
		where bid.exchange_id = exclusion.line_item_id window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	// Columns shipped: bid [exchange_id], exclusion [line_item_id].
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "b", TypeIdx: 0,
		Tuples: []transport.Tuple{tup(1, sec(1), event.Int(5)), tup(2, sec(1), event.Int(6))}})
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "x", TypeIdx: 1,
		Tuples: []transport.Tuple{tup(1, sec(2), event.Int(5)), tup(2, sec(2), event.Int(99))}})
	e.Tick(sec(30))
	row := c.all()[0].Rows[0]
	if row[0].String() != "1" {
		t.Errorf("central-pred join count = %v, want 1", row[0])
	}
}

func TestLateTuplesCounted(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(1))))
	e.Tick(sec(60)) // closes [0,10)
	// This tuple's window has already been emitted → late drop.
	e.HandleBatch(bidBatch(1, "h1", tup(2, sec(2))))
	stats, ok := e.StopQuery(1)
	if !ok {
		t.Fatal("StopQuery missed")
	}
	if stats.LateDrops != 1 {
		t.Errorf("late drops = %d, want 1", stats.LateDrops)
	}
}

// TestStatsCurrentBetweenWindows: Stats reads the drop totals when it is
// called, not as the last emitted window stamped them, so a late drop and
// a host's queue drops show before another window closes.
func TestStatsCurrentBetweenWindows(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(1))))
	e.Tick(sec(60)) // closes [0,10)
	late := bidBatch(1, "h1", tup(2, sec(2)))
	late.QueueDrops = 3
	e.HandleBatch(late)
	stats, ok := e.Stats(1)
	if !ok || stats.Windows != 1 || stats.LateDrops != 1 || stats.HostDrops != 3 {
		t.Errorf("stats after the late batch = %+v (ok %v), want 1 window, 1 late drop, 3 host drops", stats, ok)
	}
	if final, _ := e.StopQuery(1); final.LateDrops != 1 || final.HostDrops != 3 {
		t.Errorf("final stats = %+v", final)
	}
}

// TestLatenessGraceAtCentral pins watermark − lateness where it is
// computed, at the merger: a window stays open, and takes stragglers,
// until the watermark is a full Plan.Lateness past its end. (The window
// manager only ever sees the resulting bound.)
func TestLatenessGraceAtCentral(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	p.Lateness = 5 * time.Second
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(5))))
	// Watermark 12s: [0,10) needs 10s+5s.
	e.HandleBatch(bidBatch(1, "h1", tup(2, sec(12))))
	if wins := c.all(); len(wins) != 0 {
		t.Fatalf("closed too early: %+v", wins)
	}
	// A straggler within the grace is folded in, not dropped.
	e.HandleBatch(bidBatch(1, "h1", tup(3, sec(8))))
	// Watermark 15s closes [0,10) with both its tuples.
	e.HandleBatch(bidBatch(1, "h1", tup(4, sec(15))))
	wins := c.all()
	if len(wins) != 1 || wins[0].WindowStart != 0 || wins[0].Rows[0][0].String() != "2" || wins[0].Stats.LateDrops != 0 {
		t.Fatalf("at watermark 15s: %+v", wins)
	}
	// From then on a tuple for it is late.
	e.HandleBatch(bidBatch(1, "h1", tup(5, sec(7))))
	if stats, _ := e.StopQuery(1); stats.LateDrops != 1 || stats.Windows != 2 {
		t.Errorf("final stats = %+v, want 1 late drop over 2 windows", stats)
	}
}

func TestSpanGatingAtCentral(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	p.StartNanos = sec(10)
	p.EndNanos = sec(20)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1",
		tup(1, sec(5)),  // before span
		tup(2, sec(15)), // inside
		tup(3, sec(25)), // after span
	))
	e.Tick(sec(60))
	wins := c.all()
	if len(wins) != 1 {
		t.Fatalf("wins = %d", len(wins))
	}
	if wins[0].Rows[0][0].String() != "1" {
		t.Errorf("span-gated count = %v", wins[0].Rows[0][0])
	}
}

func TestStopQueryFlushes(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(1)), tup(2, sec(2))))
	stats, ok := e.StopQuery(1)
	if !ok {
		t.Fatal("StopQuery missed")
	}
	wins := c.all()
	if len(wins) != 1 || wins[0].Rows[0][0].String() != "2" {
		t.Fatalf("flush wins = %+v", wins)
	}
	if stats.Windows != 1 || stats.Rows != 1 || stats.TuplesIn != 2 {
		t.Errorf("final stats = %+v", stats)
	}
	if _, ok := e.StopQuery(1); ok {
		t.Error("second stop should miss")
	}
	// Batches after stop are dropped silently.
	e.HandleBatch(bidBatch(1, "h1", tup(3, sec(3))))
}

func TestHostDropsSurfaceInStats(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h1", TypeIdx: 0,
		Tuples: []transport.Tuple{tup(1, sec(1))}, QueueDrops: 7})
	e.Tick(sec(30))
	if got := c.all()[0].Stats.HostDrops; got != 7 {
		t.Errorf("host drops = %d, want 7", got)
	}
}

func TestRawRowOverflowBounded(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select bid.user_id from bid window 10s`, 1, 1, 1)
	p.maxRawRows = 5
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	tuples := make([]transport.Tuple, 20)
	for i := range tuples {
		tuples[i] = tup(uint64(i), sec(1), event.Int(int64(i)))
	}
	e.HandleBatch(bidBatch(1, "h1", tuples...))
	e.Tick(sec(30))
	wins := c.all()
	if len(wins[0].Rows) != 5 {
		t.Errorf("raw rows = %d, want capped 5", len(wins[0].Rows))
	}
	if wins[0].Stats.LateDrops != 15 { // overflow counted in drops
		t.Errorf("overflow drops = %d", wins[0].Stats.LateDrops)
	}
}

func TestUnknownQueryBatchIgnored(t *testing.T) {
	e := NewEngine()
	e.HandleBatch(bidBatch(999, "h1", tup(1, sec(1)))) // must not panic
	// Bad type index also ignored.
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h", TypeIdx: 9,
		Tuples: []transport.Tuple{tup(1, sec(1))}})
	if st, _ := e.Stats(1); st.TuplesIn != 0 {
		t.Error("bad type index tuple counted")
	}
	if _, ok := e.Stats(999); ok {
		t.Error("stats for unknown query")
	}
}

func BenchmarkHandleBatchGrouped(b *testing.B) {
	e := NewEngine()
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt}))
	q, _ := ql.Parse(`select bid.user_id, count(*) from bid group by bid.user_id window 10s`)
	ap, err := ql.Analyze(q, cat)
	if err != nil {
		b.Fatal(err)
	}
	p := FromPlan(ap, 1, 0, 0, 1, 1)
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		b.Fatal(err)
	}
	const batchSize = 256
	tuples := make([]transport.Tuple, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		for j := range tuples {
			ts += int64(time.Millisecond)
			tuples[j] = tup(uint64(j), ts, event.Int(int64(j%100)))
		}
		e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h", Tuples: tuples})
	}
	b.SetBytes(batchSize)
}

// BenchmarkFleet is what one count(*) query costs its Engine as the fleet
// feeding it grows to 1, 100, 1 000 and 10 000 live streams: ns per
// 16-tuple batch (each folds a manifest and recomputes the watermark over
// every stream) and ns per emitted window (each reports every stream).
// One op is one window: a batch from each of the next 16 streams, then
// the tick that closes the window. The declared lateness keeps the
// batches from closing a window, and the lease clock stands still, so no
// stream expires.
func BenchmarkFleet(b *testing.B) {
	const batchesPerWindow, batchSize = 16, 16
	for _, streams := range []int{1, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			now := time.Unix(0, 0)
			e := NewEngineWith(Options{Clock: func() time.Time { return now }})
			p := buildPlan(b, `select count(*) from bid window 1s`, 1, streams, streams)
			p.Lateness = 1000 * time.Hour
			if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
				b.Fatal(err)
			}
			hosts := make([]string, streams)
			tuples := make([]transport.Tuple, batchSize)
			batch := func(host string, ts int64) {
				for j := range tuples {
					tuples[j] = tup(uint64(j), ts)
				}
				e.HandleBatch(bidBatch(1, host, tuples...))
			}
			for i := range hosts {
				hosts[i] = fmt.Sprintf("h%05d", i)
				batch(hosts[i], 0) // every stream is live and has a clock
			}
			var batchNs, windowNs time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := sec(int64(i))
				t0 := time.Now()
				for k := 0; k < batchesPerWindow; k++ {
					batch(hosts[(i*batchesPerWindow+k)%streams], start+int64(k))
				}
				t1 := time.Now()
				e.Tick(start + sec(1) + int64(p.Lateness))
				windowNs += time.Since(t1)
				batchNs += t1.Sub(t0)
			}
			b.ReportMetric(float64(batchNs)/float64(b.N*batchesPerWindow), "ns/batch")
			b.ReportMetric(float64(windowNs)/float64(b.N), "ns/window")
		})
	}
}

func TestSlidingWindowsAtCentral(t *testing.T) {
	// The paper's named extension: window 10s slide 5s — each tuple
	// counts in two overlapping windows.
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s slide 5s`, 1, 1, 1)
	if p.Slide != 5*time.Second {
		t.Fatalf("plan slide = %v", p.Slide)
	}
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	// Tuples at 7s and 12s: [0,10) sees one, [5,15) sees both, [10,20)
	// sees one.
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(7)), tup(2, sec(12))))
	e.Tick(sec(60))
	wins := c.all()
	if len(wins) != 3 {
		t.Fatalf("windows = %d, want 3", len(wins))
	}
	counts := map[int64]string{}
	for _, w := range wins {
		counts[w.WindowStart/int64(time.Second)] = w.Rows[0][0].String()
	}
	if counts[0] != "1" || counts[5] != "2" || counts[10] != "1" {
		t.Errorf("sliding counts = %v", counts)
	}
}

func TestHavingOrderLimitAtCentral(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select bid.user_id, count(*) as n from bid
		group by bid.user_id having count(*) > 1
		order by n desc, 1 limit 2 window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	// Counts: user 1 ×4, user 2 ×3, user 3 ×2, user 4 ×1.
	var tuples []transport.Tuple
	req := uint64(0)
	addN := func(user int64, n int) {
		for i := 0; i < n; i++ {
			req++
			tuples = append(tuples, tup(req, sec(1), event.Int(user)))
		}
	}
	addN(1, 4)
	addN(2, 3)
	addN(3, 2)
	addN(4, 1)
	e.HandleBatch(bidBatch(1, "h1", tuples...))
	e.Tick(sec(60))
	wins := c.all()
	if len(wins) != 1 {
		t.Fatalf("wins = %d", len(wins))
	}
	rows := wins[0].Rows
	// HAVING drops user 4; LIMIT 2 keeps the top two by count desc.
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].String() != "1" || rows[0][1].String() != "4" {
		t.Errorf("row 0 = %v", rows[0])
	}
	if rows[1][0].String() != "2" || rows[1][1].String() != "3" {
		t.Errorf("row 1 = %v", rows[1])
	}
}

func TestOrderLimitOnRawRows(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select bid.user_id, bid.bid_price from bid order by 2 desc limit 3 window 10s`, 1, 1, 1)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	var tuples []transport.Tuple
	for i := 0; i < 10; i++ {
		tuples = append(tuples, tup(uint64(i+1), sec(1), event.Int(int64(i)), event.Float(float64(i))))
	}
	e.HandleBatch(bidBatch(1, "h1", tuples...))
	e.Tick(sec(60))
	rows := c.all()[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][1].String() != "9" || rows[2][1].String() != "7" {
		t.Errorf("top rows = %v", rows)
	}
}

func TestEngineConcurrentStress(t *testing.T) {
	// Batches from many hosts, ticks, stats reads, and a late StopQuery —
	// all concurrent. Run under -race in CI; the assertion here is just
	// conservation: every emitted count sums to the tuples accepted.
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 1s`, 1, 1, 1)
	p.Lateness = time.Hour // nothing closes until the final flush
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	const hosts = 8
	const batches = 50
	const perBatch = 20
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				tuples := make([]transport.Tuple, perBatch)
				for i := range tuples {
					tuples[i] = tup(uint64(h*1_000_000+b*1000+i), sec(int64(b%10))+1)
				}
				e.HandleBatch(transport.TupleBatch{
					QueryID: 1, HostID: fmt.Sprintf("h%d", h), TypeIdx: 0, Tuples: tuples,
				})
			}
		}(h)
	}
	stop := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		for {
			select {
			case <-stop:
				return
			default:
				e.Tick(0) // bound far in the past: must never close anything
				e.Stats(1)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-tickDone
	stats, ok := e.StopQuery(1)
	if !ok {
		t.Fatal("query vanished")
	}
	const want = hosts * batches * perBatch
	if stats.TuplesIn != want {
		t.Errorf("tuples in = %d, want %d", stats.TuplesIn, want)
	}
	var emitted int64
	for _, w := range c.all() {
		for _, row := range w.Rows {
			n, _ := row[0].AsInt()
			emitted += n
		}
	}
	if emitted != want {
		t.Errorf("emitted counts sum to %d, want %d", emitted, want)
	}
	if stats.LateDrops != 0 {
		t.Errorf("late drops = %d under infinite lateness", stats.LateDrops)
	}
}
