package central

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/obs"
	"scrub/internal/sketch"
	"scrub/internal/slab"
	"scrub/internal/transport"
)

// Applying a batch to windows and groups that are already open must not
// allocate: no per-tuple window list, key string, boxed row or copy — and,
// for top_k, no item string and no bucket for a counter that moves, a
// takeover included: the zipfian users are many more than the summary's 80
// counters, so most batches evict. An ungrouped sum over a computed
// argument also feeds the per-host moments the error bounds come from.
func TestApplyOpenGroupsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(4))
	zipf := rand.NewZipf(rng, 1.1, 1, 100000)
	for _, tc := range []struct {
		name, query string
		user        func(i int) int64
	}{
		{"group-by", `select bid.user_id, count(*), avg(bid.bid_price) from bid group by bid.user_id window 10s`, func(i int) int64 { return int64(i % 16) }},
		{"top_k", `select top_k(bid.user_id, 10) from bid window 10s`, func(int) int64 { return int64(zipf.Uint64()) }},
		{"ungrouped-sum", `select count(*), sum(bid.bid_price * 2 - bid.user_id) from bid window 10s`, func(i int) int64 { return int64(i % 16) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			p := buildPlan(t, tc.query, 1, 1, 1)
			p.Lateness = time.Hour
			if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
				t.Fatal(err)
			}
			batches := make([]transport.TupleBatch, 8)
			for k := range batches {
				var tuples []transport.Tuple
				for i := 0; i < 256; i++ {
					tuples = append(tuples, tup(uint64(i), sec(1)+int64(i), event.Int(tc.user(i)), event.Float(float64(i)/3)))
				}
				batches[k] = bidBatch(1, "h1", tuples...)
				e.HandleBatch(batches[k]) // opens the window and its groups, builds the summary
			}
			k := 0
			if n := testing.AllocsPerRun(48, func() { e.HandleBatch(batches[k%len(batches)]); k++ }); n != 0 {
				t.Errorf("HandleBatch over open groups allocates %v times per 256-tuple batch, want 0", n)
			}
			st, _ := e.StopQuery(1)
			if st.TuplesIn != (8+49)*256 {
				t.Errorf("TuplesIn = %d", st.TuplesIn)
			}
		})
	}
}

// A join buffers every tuple, so it must allocate — but only as its arena
// and its bucket heads grow, a few times per thousand tuples, never per
// tuple.
func TestApplyJoinAllocsAmortised(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := NewEngine()
	p := buildPlan(t, `select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 10s`, 1, 1, 1)
	p.Lateness = time.Hour
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	const n = 512
	bids := transport.TupleBatch{QueryID: 1, HostID: "h1", TypeIdx: 0}
	excl := transport.TupleBatch{QueryID: 1, HostID: "h1", TypeIdx: 1}
	for i := 0; i < n; i++ {
		bids.Tuples = append(bids.Tuples, tup(uint64(i), sec(1)))
		excl.Tuples = append(excl.Tuples, tup(uint64(i), sec(1), event.Str("budget")))
	}
	next := uint64(0)
	round := func() {
		for i := range bids.Tuples {
			bids.Tuples[i].RequestID, excl.Tuples[i].RequestID = next, next
			next++
		}
		e.HandleBatch(bids)
		e.HandleBatch(excl)
	}
	round()
	perRound := testing.AllocsPerRun(40, round)
	if perTuple := perRound / (2 * n); perTuple > 0.02 {
		t.Errorf("join apply allocates %.3f times per tuple (%v per round of %d), want slab growth only", perTuple, perRound, 2*n)
	}
	st, _ := e.StopQuery(1)
	if st.TuplesIn != 42*2*n || st.LateDrops != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// A raw select keeps every row it admits, so it allocates as its row
// arena grows and for nothing else: not for the residual predicate, nor
// for the arithmetic select item.
func TestApplyRawAllocsAmortised(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := NewEngine()
	p := buildPlan(t, `select bid.user_id, bid.bid_price * 2 from bid window 10s`, 1, 1, 1)
	p.Lateness = time.Hour
	// The residual predicate a join carries, here over one side.
	p.CentralPred = expr.Binary{Op: expr.OpGt, L: expr.FieldRef{Type: "bid", Name: "bid_price"}, R: expr.Lit{Val: event.Float(9)}}
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	const n = 256
	b := bidBatch(1, "h1")
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, tup(uint64(i), sec(1)+int64(i), event.Int(int64(i)), event.Float(float64(10*(i%2)))))
	}
	e.HandleBatch(b)
	perBatch := testing.AllocsPerRun(40, func() { e.HandleBatch(b) })
	if perTuple := perBatch / n; perTuple > 0.02 {
		t.Errorf("raw apply allocates %.3f times per tuple (%v per batch of %d), want row arena growth only", perTuple, perBatch, n)
	}
	st, _ := e.StopQuery(1)
	if st.TuplesIn != 42*n || st.Rows != 42*n/2 || st.LateDrops != 0 { // half the prices are over 9
		t.Errorf("stats = %+v", st)
	}
}

// Opening a group allocates its share of chunk and heads growth and
// nothing of its own: no key string, no map cell.
func TestApplyNewGroupAllocsAmortised(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := NewEngine()
	p := buildPlan(t, `select bid.user_id, count(*), sum(bid.bid_price) from bid group by bid.user_id window 10s`, 1, 1, 1)
	p.Lateness = time.Hour
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	const n = 10000
	b := bidBatch(1, "h1")
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, tup(uint64(i), sec(1), event.Int(int64(i)), event.Float(1)))
	}
	window := int64(0)
	round := func() { // a fresh window each time: every tuple opens a group
		for i := range b.Tuples {
			b.Tuples[i].TsNanos = sec(1 + 10*window)
		}
		window++
		e.HandleBatch(b)
	}
	round()
	perRound := testing.AllocsPerRun(5, round)
	if perGroup := perRound / n; perGroup > 0.02 {
		t.Errorf("opening a group allocates %.3f times (%v per window of %d groups), want chunk and heads growth only", perGroup, perRound, n)
	}
	st, _ := e.StopQuery(1)
	if st.TuplesIn != 7*n || st.LateDrops != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// A window no tuple has touched for two window-opens closes as cheaply as
// one that was fed until its close: an open window has one form, so the
// close renders it where it lies — no partial is encoded while it waits
// and none is decoded back at the close.
func TestIdleWindowClosesWithoutCodec(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := buildPlan(t, `select bid.user_id, count(*), sum(bid.bid_price) from bid group by bid.user_id window 1s`, 1, 1, 1)
	p.Lateness = time.Hour
	groups := bidBatch(1, "h1")
	for i := 0; i < 1000; i++ {
		groups.Tuples = append(groups.Tuples, tup(uint64(i), sec(0)+int64(i), event.Int(int64(i)), event.Float(float64(i)/3)))
	}
	// closeFirst feeds an engine the 1 000-group window [0 s, 1 s), then
	// batches at the given times, and returns the bytes allocated by the
	// tick that closes [0 s, 1 s) alone.
	closeFirst := func(later ...int64) uint64 {
		e := NewEngine()
		var emitted []transport.ResultWindow
		if err := e.StartQuery(p, func(rw transport.ResultWindow) { emitted = append(emitted, rw) }); err != nil {
			t.Fatal(err)
		}
		e.HandleBatch(transport.CloneBatch(groups))
		for _, ts := range later {
			e.HandleBatch(bidBatch(1, "h1", tup(1, ts, event.Int(1), event.Float(1))))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.Tick(sec(1) + int64(p.Lateness))
		runtime.ReadMemStats(&after)
		if len(emitted) != 1 || len(emitted[0].Rows) != 1000 {
			t.Fatalf("the tick emitted %d windows, want [0 s, 1 s) with its 1 000 groups", len(emitted))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// The least of three runs each: another goroutine allocating during a
	// measurement adds bytes to it, never takes any away.
	least := func(later ...int64) uint64 {
		return min(closeFirst(later...), closeFirst(later...), closeFirst(later...))
	}
	live := least(sec(0) + int64(time.Second)/2)
	idle := least(sec(1)+1, sec(2)+1) // two window-opens after its last tuple
	if idle > live {
		t.Errorf("closing the idle window allocated %d bytes, the live one %d", idle, live)
	}
}

// A flood of one request id from one side — events logged outside a
// request carry id 0 — must cost each of its tuples O(1): a probe walks
// the other side's chain only. Counted in chain records visited, not in
// time. The rows the flood then joins into arrive in its arrival order.
func TestJoinOneSidedFloodIsLinear(t *testing.T) {
	const flood, others = 50000, 500
	e := NewEngine()
	p := buildPlan(t, `select bid.bid_price, exclusion.reason from bid, exclusion window 10s`, 1, 1, 1)
	p.Lateness = time.Hour
	p.maxRawRows = 2 * flood
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	bids := bidBatch(1, "h1")
	for i := 0; i < flood; i++ {
		bids.Tuples = append(bids.Tuples, tup(0, sec(1)+int64(i), event.Float(float64(i))))
	}
	for i := 1; i <= others; i++ { // bystanders, some in the flood's bucket
		bids.Tuples = append(bids.Tuples, tup(uint64(i), sec(2), event.Float(-1)))
	}
	e.HandleBatch(bids)
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h2", TypeIdx: 1, Tuples: []transport.Tuple{tup(0, sec(3), event.Str("geo"))}})

	e.mu.Lock()
	qs := e.queries[1]
	steps := qs.chainSteps
	var rows [][]event.Value
	for _, ws := range qs.win.GetAll(sec(1)) {
		rows = ws.rawRows(2)
	}
	e.mu.Unlock()
	if limit := uint64(flood + others + 1 + flood); steps > limit {
		t.Errorf("probes visited %d chain records for %d tuples, want at most %d", steps, flood+others+1, limit)
	}
	if len(rows) != flood {
		t.Fatalf("%d joined rows, want %d", len(rows), flood)
	}
	for i, row := range rows {
		if f, _ := row[0].AsFloat(); f != float64(i) {
			t.Fatalf("joined row %d carries bid %v: not arrival order", i, f)
		}
	}
	if st, _ := e.StopQuery(1); st.LateDrops != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// refJoin is the reference the slab join is checked against: per window a
// plain list of everything buffered, scanned in full for every arrival.
type refJoin struct {
	buffered []refTuple
	count    map[string]int64
	sum      map[string]float64
	tuples   uint64
}

type refTuple struct {
	side   int
	req    uint64
	price  float64
	reason string
}

// TestSlabJoinMatchesNestedLoop feeds seeded bid/exclusion streams —
// request ids drawn from a small range so ids repeat M×N, the two sides
// interleaved at random so either may arrive first, sliding windows so a
// tuple lands in two, and on some seeds a maxJoinPending small enough to
// overflow — and requires every window's groups, counts, float sums (bit
// for bit: the fold order is the arrival order) and drop count to equal
// the nested-loop reference.
func TestSlabJoinMatchesNestedLoop(t *testing.T) {
	const window, slide = 10, 5
	reasons := []string{"budget", "geo", "cap"}
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := buildPlan(t, `select exclusion.reason, count(*), sum(bid.bid_price) from bid, exclusion group by exclusion.reason window 10s`, 1, 1, 1)
			p.Slide = slide * time.Second
			p.Lateness = time.Hour
			maxPending := 1 << 20
			if seed%3 == 0 {
				maxPending = 20 + rng.Intn(40)
			}
			p.maxJoinPending = maxPending
			e := NewEngine()
			c := &collector{}
			if err := e.StartQuery(p, c.emit); err != nil {
				t.Fatal(err)
			}

			ref := make(map[int64]*refJoin)
			var refOverflow uint64
			apply := func(start int64, rt refTuple) {
				w := ref[start]
				if w == nil {
					w = &refJoin{count: map[string]int64{}, sum: map[string]float64{}}
					ref[start] = w
				}
				w.tuples++
				for _, o := range w.buffered {
					if o.side == rt.side || o.req != rt.req {
						continue
					}
					bid, ex := rt, o
					if rt.side == 1 {
						bid, ex = o, rt
					}
					w.count[ex.reason]++
					w.sum[ex.reason] += bid.price
				}
				if len(w.buffered) >= maxPending {
					refOverflow++
					return
				}
				w.buffered = append(w.buffered, rt)
			}

			reqRange := 4 + rng.Intn(30)
			for batch := 0; batch < 40; batch++ {
				side := rng.Intn(2)
				b := transport.TupleBatch{QueryID: 1, HostID: fmt.Sprintf("h%d", rng.Intn(3)), TypeIdx: uint8(side)}
				for k := rng.Intn(12); k >= 0; k-- {
					rt := refTuple{side: side, req: uint64(rng.Intn(reqRange))}
					ts := sec(int64(rng.Intn(30)))
					if side == 0 {
						rt.price = float64(rng.Intn(10000)) / 7
						b.Tuples = append(b.Tuples, tup(rt.req, ts, event.Float(rt.price)))
					} else {
						rt.reason = reasons[rng.Intn(len(reasons))]
						b.Tuples = append(b.Tuples, tup(rt.req, ts, event.Str(rt.reason)))
					}
					// Covering windows in ascending start order, as the
					// engine visits them.
					latest := ts - ts%sec(slide)
					for start := latest - sec(window-slide); start <= latest; start += sec(slide) {
						apply(start, rt)
					}
				}
				e.HandleBatch(b)
			}
			st, _ := e.StopQuery(1)
			if st.LateDrops != refOverflow {
				t.Errorf("overflow drops = %d, reference %d", st.LateDrops, refOverflow)
			}
			if seed%3 == 0 && refOverflow == 0 {
				t.Error("seed meant to overflow maxJoinPending did not")
			}

			wins := c.all()
			if len(wins) != len(ref) {
				t.Fatalf("%d windows emitted, reference has %d", len(wins), len(ref))
			}
			for _, rw := range wins {
				w := ref[rw.WindowStart]
				if w == nil {
					t.Fatalf("window %d not in the reference", rw.WindowStart)
				}
				if rw.Stats.TuplesIn != w.tuples {
					t.Errorf("window %d: TuplesIn %d, reference %d", rw.WindowStart, rw.Stats.TuplesIn, w.tuples)
				}
				var keys []string
				for k := range w.count {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if len(rw.Rows) != len(keys) {
					t.Fatalf("window %d: %d groups, reference %d", rw.WindowStart, len(rw.Rows), len(keys))
				}
				got := make(map[string][]event.Value)
				for _, row := range rw.Rows {
					s, _ := row[0].AsStr()
					got[s] = row
				}
				for _, k := range keys {
					row := got[k]
					if row == nil {
						t.Fatalf("window %d: group %q missing", rw.WindowStart, k)
					}
					n, _ := row[1].AsInt()
					f, _ := row[2].AsFloat()
					if n != w.count[k] || math.Float64bits(f) != math.Float64bits(w.sum[k]) {
						t.Errorf("window %d group %q: count %d sum %v, reference %d %v", rw.WindowStart, k, n, f, w.count[k], w.sum[k])
					}
				}
			}
		})
	}
}

func gaugeValue(reg *obs.Registry, name string) int64 { return reg.Gauge(name, "").Value() }

// Every way a window leaves its manager must take what it held off the
// state gauges: the emitting paths and each of the driven ones. Before the
// decrement moved to where the window leaves, the driven paths leaked
// join_pending upward forever.
func TestStateGaugesReturnToZero(t *testing.T) {
	joinQ := `select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 10s`
	feed := func(apply func(transport.TupleBatch)) {
		for i := 0; i < 3; i++ {
			var bids, excl []transport.Tuple
			for k := 0; k < 40; k++ {
				req := uint64(i*100 + k)
				bids = append(bids, tup(req, sec(int64(5+10*i))))
				excl = append(excl, tup(req, sec(int64(5+10*i)), event.Str("geo")))
			}
			apply(transport.TupleBatch{QueryID: 1, HostID: "h1", TypeIdx: 0, Tuples: bids})
			apply(transport.TupleBatch{QueryID: 1, HostID: "h2", TypeIdx: 1, Tuples: excl})
		}
	}
	// The feed opens three windows in order; the straggler lands in the
	// first of them while it is still open.
	straggler := transport.TupleBatch{QueryID: 1, HostID: "h2", TypeIdx: 1, Tuples: []transport.Tuple{tup(7, sec(5), event.Str("cap"))}}
	check := func(t *testing.T, reg *obs.Registry, when string, wantPending int64) {
		t.Helper()
		if got := gaugeValue(reg, "scrub_central_join_pending"); got != wantPending {
			t.Errorf("%s: scrub_central_join_pending = %d, want %d", when, got, wantPending)
		}
		bytes := gaugeValue(reg, "scrub_central_state_bytes")
		if (wantPending == 0) != (bytes == 0) || bytes < 0 {
			t.Errorf("%s: scrub_central_state_bytes = %d with %d tuples pending", when, bytes, wantPending)
		}
	}

	t.Run("driven", func(t *testing.T) {
		reg := obs.NewRegistry()
		e := NewEngineWith(Options{Metrics: reg})
		p := buildPlan(t, joinQ, 1, 2, 2)
		if err := e.StartDriven(p); err != nil {
			t.Fatal(err)
		}
		feed(func(b transport.TupleBatch) {
			if _, ok := e.ApplyDriven(b); !ok {
				t.Fatal("ApplyDriven: unknown query")
			}
		})
		check(t, reg, "after apply", 240)
		if partials, _, _, ok := e.CollectDriven(1, sec(10)); !ok || len(partials) != 1 {
			t.Fatalf("CollectDriven: %d partials, ok=%v", len(partials), ok)
		}
		check(t, reg, "after collecting the first window", 160)
		if partials, ok := e.DrainDriven(1); !ok || len(partials) != 2 {
			t.Fatalf("DrainDriven: %d partials, ok=%v", len(partials), ok)
		}
		check(t, reg, "after drain", 0)
	})

	t.Run("engine-tick", func(t *testing.T) {
		reg := obs.NewRegistry()
		e := NewEngineWith(Options{Metrics: reg})
		p := buildPlan(t, joinQ, 1, 2, 2)
		p.Lateness = time.Hour
		if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
			t.Fatal(err)
		}
		feed(e.HandleBatch)
		check(t, reg, "after apply", 240)
		e.HandleBatch(straggler)
		check(t, reg, "after a straggler", 241)
		e.Tick(sec(20) + int64(p.Lateness))
		check(t, reg, "after tick closed two windows", 80)
		e.StopQuery(1)
		check(t, reg, "after stop", 0)
	})

	t.Run("engine-watermark", func(t *testing.T) {
		reg := obs.NewRegistry()
		e := NewEngineWith(Options{Metrics: reg})
		p := buildPlan(t, joinQ, 1, 2, 2) // default 2 s lateness
		if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
			t.Fatal(err)
		}
		// Both streams reach 25 s, so the watermark closes [0,10) and
		// [10,20) inside HandleBatch.
		feed(e.HandleBatch)
		check(t, reg, "after the watermark closed two windows", 80)
		e.StopQuery(1)
		check(t, reg, "after stop", 0)
	})

	t.Run("sharded", func(t *testing.T) {
		reg := obs.NewRegistry()
		se, err := NewShardedEngineWith(3, Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		p := buildPlan(t, joinQ, 1, 2, 2)
		p.Lateness = time.Hour
		if err := se.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
			t.Fatal(err)
		}
		feed(se.HandleBatch)
		check(t, reg, "after apply", 240) // the shards charge the merger's registry
		se.HandleBatch(straggler)         // request 7 lives on shard 1
		check(t, reg, "after a straggler", 241)
		se.Tick(sec(10) + int64(p.Lateness))
		check(t, reg, "after tick closed one window", 160)
		se.StopQuery(1)
		check(t, reg, "after stop", 0)
	})
}

// The gauge moves only when a slab grows: it must equal the capacity the
// open windows' slabs actually hold.
func TestStateBytesGaugeTracksSlabCapacity(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngineWith(Options{Metrics: reg})
	p := buildPlan(t, `select bid.user_id, count(*), max(bid.bid_price) from bid group by bid.user_id window 10s`, 1, 1, 1)
	p.Lateness = time.Hour
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	raw := buildPlan(t, `select bid.user_id from bid window 10s`, 2, 1, 1)
	raw.Lateness = time.Hour
	if err := e.StartQuery(raw, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	// A join whose exclusions carry a string: each of its windows holds a
	// table of string slots, but the first, which buffers bids only.
	join := buildPlan(t, `select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 10s`, 3, 1, 1)
	join.Lateness = time.Hour
	if err := e.StartQuery(join, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		ts := sec(int64(i % 25))
		e.HandleBatch(bidBatch(1, "h1", tup(uint64(i), ts, event.Int(int64(i%700)), event.Float(1))))
		e.HandleBatch(bidBatch(2, "h1", tup(uint64(i), ts, event.Int(int64(i)))))
		e.HandleBatch(bidBatch(3, "h1", tup(uint64(i), ts)))
		if ts >= sec(10) {
			e.HandleBatch(transport.TupleBatch{QueryID: 3, HostID: "h1", TypeIdx: 1, Tuples: []transport.Tuple{tup(uint64(i), ts, event.Str(fmt.Sprint("r", i%9)))}})
		}
	}
	// The feed's event times span [0 s, 25 s): three windows a query, all
	// still open, so GetAll finds them and creates none.
	var want, heads, groups int64
	var slotted []bool
	e.mu.Lock()
	for _, qs := range e.queries {
		for _, at := range []int64{0, 10, 20} {
			for _, ws := range qs.win.GetAll(sec(at)) {
				want += ws.slabBytes()
				heads += ws.groups.Bytes()
				groups += int64(ws.groups.Len())
				if qs.plan.QueryID == 3 {
					// The join's windows hold runs, heads and the pairs'
					// groups, and 256 bytes of slots once they buffer a
					// string.
					slots := ws.slabBytes() - ws.arena.Bytes() - ws.join.Bytes() -
						ws.groupRuns.Bytes() - ws.groups.Bytes() - ws.aggs.Bytes()
					if slots != 0 && slots != 256 || (slots == 256) != (ws.strs != nil) {
						t.Errorf("join window %d: %d bytes beyond its runs, heads and groups; slots made: %v", at, slots, ws.strs != nil)
					}
					slotted = append(slotted, ws.strs != nil)
				}
			}
		}
	}
	e.mu.Unlock()
	if got := gaugeValue(reg, "scrub_central_state_bytes"); got != want || want == 0 {
		t.Errorf("scrub_central_state_bytes = %d, open windows hold %d", got, want)
	}
	if fmt.Sprint(slotted) != "[false true true]" {
		t.Errorf("join windows 0, 10 and 20 s made string slots: %v", slotted)
	}
	// The figure includes the indexes: a bucket head per group at least.
	if groups == 0 || heads < 4*groups {
		t.Errorf("group index heads hold %d bytes for %d groups", heads, groups)
	}
	e.StopQuery(1)
	e.StopQuery(2)
	e.StopQuery(3)
	if got := gaugeValue(reg, "scrub_central_state_bytes"); got != 0 {
		t.Errorf("scrub_central_state_bytes = %d after every query stopped", got)
	}
}

// The gauge covers the sketches: a window's top_k summary and its
// count_distinct registers are charged while the window is open — as the
// summary grows, not only when a group opens — and gone when it closes.
func TestStateBytesGaugeCountsSketches(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngineWith(Options{Metrics: reg})
	p := buildPlan(t, `select top_k(bid.user_id, 10), count_distinct(bid.user_id) from bid window 10s`, 1, 1, 1)
	p.Lateness = time.Hour
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	start := gaugeValue(reg, "scrub_central_state_bytes")
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(1), event.Int(1))))
	one := gaugeValue(reg, "scrub_central_state_bytes")
	hll := int64(1) << sketch.DefaultHLLPrecision
	if one-start < hll {
		t.Errorf("scrub_central_state_bytes rose by %d for a window with a count_distinct, whose registers alone are %d", one-start, hll)
	}
	for i := 0; i < 200; i++ { // fills the summary's 80 counters; no group opens
		e.HandleBatch(bidBatch(1, "h1", tup(uint64(i), sec(2), event.Int(int64(i)))))
	}
	full := gaugeValue(reg, "scrub_central_state_bytes")
	e.mu.Lock()
	held := e.queries[1].win.GetAll(sec(2))[0].slabBytes() // the one open window
	e.mu.Unlock()
	const counters = 80 * 48 // a built top_k(_, 10) summary: 80 counters of 48 bytes, at least
	if full != held || full-one < counters || full-start < hll+counters {
		t.Errorf("scrub_central_state_bytes = %d (%d after one tuple, %d idle): the window holds %d, its sketches at least %d", full, one, start, held, hll+counters)
	}
	e.StopQuery(1)
	if got := gaugeValue(reg, "scrub_central_state_bytes"); got != start {
		t.Errorf("scrub_central_state_bytes = %d after the query stopped, %d before it started", got, start)
	}
}

// TestStateBytesGrowByAChunk: a window's state grows a chunk of a store at
// a time. A join and a 5 000-group query are fed one tuple at a time; after
// each tuple each store slabBytes counts may have risen by at most its own
// chunk — an arena's settled 8 KiB, an index's 256 heads (so no index
// doubles its heads), the string table's 256 bytes, a settled chunk of
// each aggregate slab — and slabBytes by at most the sum of those of the
// stores that grew. Which stores grow on the same tuple follows the hash
// seed (a run holds a link only when its bucket held a run), so the seeds
// are pinned. A group's heads and aggregate states grow together on every
// seed; on 0x5c7b_002f a join's arena and heads do too, by more than an
// arena chunk, which one chunk for the whole window would not allow. The
// test requires that it sees both.
func TestStateBytesGrowByAChunk(t *testing.T) {
	defer func(seed uint64) { hashSeed = seed }(hashSeed)
	const groups = 5000
	var widest int64
	for _, tc := range []struct {
		name, query string
		n           int
		tuple       func(p *Plan, i int) (side uint8, tu transport.Tuple)
	}{
		// Two bids to an exclusion that joins the bid before it: 12 000
		// buffered runs, refs and string refs among them.
		{"join", reasonJoinQ, 12000, func(p *Plan, i int) (uint8, transport.Tuple) {
			in := joinIn{side: 0, req: uint64(i)}
			if i%3 == 2 {
				in = joinIn{side: 1, req: uint64(i - 1), s: sixReasons[i%len(sixReasons)]}
			}
			return uint8(in.side), in.tuple(p)
		}},
		{"groups", `select bid.user_id, count(*), avg(bid.bid_price) from bid group by bid.user_id window 10s`, 2 * groups, func(_ *Plan, i int) (uint8, transport.Tuple) {
			return 0, tup(uint64(i), sec(1), event.Int(int64(i%groups)), event.Float(float64(i)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var together int64 // the largest rise of a tuple that grew two stores or more
			for _, seed := range []uint64{0x5c7b_0001, 0x5c7b_002f, 0x5c7b_0047} {
				hashSeed = seed
				together = max(together, stateGrowth(t, tc.query, tc.n, tc.tuple))
			}
			if together == 0 {
				t.Fatal("on no pinned seed did one tuple grow two stores")
			}
			widest = max(widest, together)
		})
	}
	if widest <= slab.ArenaMaxChunk {
		t.Errorf("on no pinned seed did one tuple grow the window by more than an arena chunk (at most %d bytes): the seeds no longer land two stores' chunks on one tuple", widest)
	}
}

// stateGrowth feeds one window n tuples and holds each of its stores to a
// chunk a tuple (TestStateBytesGrowByAChunk). It returns the largest rise
// of a tuple that grew two stores or more, 0 when none did.
func stateGrowth(t *testing.T, query string, n int, tuple func(p *Plan, i int) (uint8, transport.Tuple)) (together int64) {
	t.Helper()
	e := NewEngine()
	p := buildPlan(t, query, 1, 1, 1)
	p.Lateness = time.Hour
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	// An aggregate slab's first chunks hold slab.MinChunk states of each
	// kind and its settled ones slab.MaxChunk: its chunk is set from what
	// its first group took.
	stores := []struct {
		name  string
		bytes func(ws *winState) int64
		chunk int64
	}{
		{"arena", func(ws *winState) int64 { return ws.arena.Bytes() }, slab.ArenaMaxChunk},
		{"join heads", func(ws *winState) int64 { return ws.join.Bytes() }, 4 * slab.MaxChunk},
		{"strs", func(ws *winState) int64 {
			if ws.strs == nil {
				return 0
			}
			return 4 * strSlots
		}, 4 * strSlots},
		{"group runs", func(ws *winState) int64 { return ws.groupRuns.Bytes() }, slab.ArenaMaxChunk},
		{"group heads", func(ws *winState) int64 { return ws.groups.Bytes() }, 4 * slab.MaxChunk},
		{"aggs", func(ws *winState) int64 { return ws.aggs.Bytes() }, 0},
		{"raw", func(ws *winState) int64 { return ws.raw.Bytes() }, slab.ArenaMaxChunk},
	}
	held := func() (per []int64, total int64) {
		e.mu.Lock()
		defer e.mu.Unlock()
		ws := e.queries[1].win.GetAll(sec(1))
		if len(ws) != 1 {
			t.Fatalf("%d windows cover 1 s", len(ws))
		}
		for _, st := range stores {
			per = append(per, st.bytes(ws[0]))
		}
		return per, ws[0].slabBytes()
	}
	before := make([]int64, len(stores))
	var total int64
	for i := 0; i < n; i++ {
		side, tu := tuple(&p, i)
		e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h1", TypeIdx: side, Tuples: []transport.Tuple{tu}})
		per, now := held()
		var allowed int64
		grown := 0
		for k := range stores {
			st := &stores[k]
			if st.chunk == 0 { // the aggregate slab, at its first group
				st.chunk = slab.MaxChunk / slab.MinChunk * per[k]
			}
			if grew := per[k] - before[k]; grew > st.chunk {
				t.Fatalf("seed %#x tuple %d: %s grew from %d to %d bytes at once, more than its chunk of %d", hashSeed, i, st.name, before[k], per[k], st.chunk)
			} else if grew > 0 {
				allowed += st.chunk
				grown++
			}
		}
		before = per
		if now-total > allowed {
			t.Fatalf("seed %#x tuple %d: the window's state grew from %d to %d bytes at once, more than the %d its grown stores' chunks allow", hashSeed, i, total, now, allowed)
		}
		if grown > 1 {
			together = max(together, now-total)
		}
		total = now
	}
	if total < 16*slab.ArenaMaxChunk {
		t.Fatalf("the window holds %d bytes: too few growths to test", total)
	}
	return together
}
