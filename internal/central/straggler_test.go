package central

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"scrub/internal/agg"
	"scrub/internal/event"
	"scrub/internal/obs"
	"scrub/internal/transport"
)

// stragglerPlan is one plan TestStragglersMatchReference runs a stream
// through, with the reference its windows are held to.
type stragglerPlan struct {
	name  string
	query string
	slide time.Duration // 0: tumbling
	check func(t *testing.T, rw transport.ResultWindow, ref *refWindow)
}

// refWindow is one window of the reference: everything that arrived, in
// arrival order, folded the plain way — a nested loop for the join, a map
// per group, a list of rows.
type refWindow struct {
	tuples   uint64
	buffered []refTuple // join: scanned in full for every arrival
	count    map[string]int64
	sum      map[string]float64
	total    float64 // every row's price, summed in arrival order
	topk     agg.Aggregator
	rows     [][]event.Value
}

func newRefWindow() *refWindow {
	lay, err := agg.NewLayout([]agg.Spec{{Kind: agg.KindTopK, K: 3}})
	if err != nil {
		panic(err)
	}
	sl := agg.NewSlab(lay)
	g, _ := sl.Open()
	return &refWindow{
		count: map[string]int64{}, sum: map[string]float64{},
		topk: sl.At(g, 0),
	}
}

// fold is what one (possibly joined) row contributes, under every plan at
// once: each check reads the part its plan computes.
func (w *refWindow) fold(user int64, price float64, reason string) {
	key := reason
	if key == "" {
		key = fmt.Sprint(user)
	}
	w.count[key]++
	w.sum[key] += price
	w.total += price
	w.topk.Add(event.Int(user))
	w.rows = append(w.rows, []event.Value{event.Int(user), event.Float(price)})
}

func checkGroups(t *testing.T, rw transport.ResultWindow, ref *refWindow) {
	t.Helper()
	if len(rw.Rows) != len(ref.count) {
		t.Fatalf("window %d: %d groups, reference %d", rw.WindowStart, len(rw.Rows), len(ref.count))
	}
	for _, row := range rw.Rows {
		key := row[0].String()
		if s, ok := row[0].AsStr(); ok {
			key = s
		}
		n, _ := row[1].AsInt()
		f, _ := row[2].AsFloat()
		if n != ref.count[key] || math.Float64bits(f) != math.Float64bits(ref.sum[key]) {
			t.Errorf("window %d group %q: count %d sum %v, reference %d %v", rw.WindowStart, key, n, f, ref.count[key], ref.sum[key])
		}
	}
}

var stragglerPlans = []stragglerPlan{
	{name: "groupby", check: checkGroups,
		query: `select bid.user_id, count(*), sum(bid.bid_price) from bid group by bid.user_id window 1s`},
	{name: "join", check: checkGroups, slide: 500 * time.Millisecond,
		query: `select exclusion.reason, count(*), sum(bid.bid_price) from bid, exclusion group by exclusion.reason window 1s`},
	{name: "topk", query: `select top_k(bid.user_id, 3) from bid window 1s`,
		check: func(t *testing.T, rw transport.ResultWindow, ref *refWindow) {
			t.Helper()
			if len(rw.Rows) != 1 || !sameValue(rw.Rows[0][0], ref.topk.Result()) {
				t.Errorf("window %d: top_k %v, reference %v", rw.WindowStart, rw.Rows, ref.topk.Result())
			}
		}},
	{name: "raw", query: `select bid.user_id, bid.bid_price from bid window 1s`,
		check: func(t *testing.T, rw transport.ResultWindow, ref *refWindow) {
			t.Helper()
			// Emitted raw rows are in canonical order; so is the reference.
			sort.Slice(ref.rows, func(i, j int) bool { return compareRows(ref.rows[i], ref.rows[j]) < 0 })
			if !sameRows(rw.Rows, ref.rows) {
				t.Errorf("window %d: %d raw rows differ from the reference's %d", rw.WindowStart, len(rw.Rows), len(ref.rows))
			}
		}},
	// Ungrouped and sampled: the per-host moments behind the error bounds
	// are kept too, and the results are scaled up by the plan's rate.
	{name: "moments", query: `select count(*), sum(bid.bid_price) from bid window 1s sample events 50%`,
		check: func(t *testing.T, rw transport.ResultWindow, ref *refWindow) {
			t.Helper()
			n, _ := rw.Rows[0][0].AsInt()
			f, _ := rw.Rows[0][1].AsFloat()
			if n != 2*int64(ref.tuples) || math.Float64bits(f) != math.Float64bits(2*ref.total) || !rw.Approx {
				t.Errorf("window %d: count %d sum %v approx %v, reference scaled %d %v", rw.WindowStart, n, f, rw.Approx, 2*ref.tuples, 2*ref.total)
			}
		}},
}

func sameRows(a, b [][]event.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if !sameValue(a[i][k], b[i][k]) {
				return false
			}
		}
	}
	return true
}

// stragglerRun drives one seeded stream through an engine and through the
// reference. Event time moves about a seventh of a window a batch over
// some sixty windows; lateness is twenty windows, so nothing is late; one
// tuple in twenty is a straggler up to fifteen windows old. With join set,
// both sides of a request are shipped, the second often as a straggler
// whose partner was buffered many windows before.
type stragglerRun struct {
	t          *testing.T
	p          Plan
	sp         stragglerPlan
	e          *Engine
	reg        *obs.Registry
	out        collector
	ref        map[int64]*refWindow
	bidTs      []int64 // by request id: the event time of its bid
	stragglers int     // tuples at least a window behind the clock
	lateJoins  int     // joins a straggler formed with a partner buffered before
}

func newStragglerRun(t *testing.T, sp stragglerPlan) *stragglerRun {
	r := &stragglerRun{t: t, sp: sp, ref: map[int64]*refWindow{}, reg: obs.NewRegistry()}
	r.p = buildPlan(t, sp.query, 1, 3, 3)
	r.p.Lateness = 20 * time.Second
	if sp.slide != 0 {
		r.p.Slide = sp.slide
	}
	r.e = NewEngineWith(Options{Metrics: r.reg})
	if err := r.e.StartQuery(r.p, r.out.emit); err != nil {
		t.Fatal(err)
	}
	return r
}

// apply folds one tuple into the reference's covering windows, ascending
// by start as the engine visits them.
func (r *stragglerRun) apply(rt refTuple, user int64, ts int64, straggler bool) {
	size, slide := int64(r.p.Window), int64(r.p.Window)
	if r.p.Slide != 0 {
		slide = int64(r.p.Slide)
	}
	latest := ts - ts%slide
	for start := latest - size + slide; start <= latest; start += slide {
		w := r.ref[start]
		if w == nil {
			w = newRefWindow()
			r.ref[start] = w
		}
		w.tuples++
		if !r.p.IsJoin() {
			w.fold(user, rt.price, "")
			continue
		}
		for _, o := range w.buffered {
			if o.side == rt.side || o.req != rt.req {
				continue
			}
			bid, ex := rt, o
			if rt.side == 1 {
				bid, ex = o, rt
			}
			w.fold(0, bid.price, ex.reason)
			if straggler {
				r.lateJoins++
			}
		}
		w.buffered = append(w.buffered, rt)
	}
}

// batch ships one batch of n tuples of side from host at event time
// around clock (nanoseconds), drawing everything from rng.
func (r *stragglerRun) batch(rng *rand.Rand, host string, side int, n int, clock int64) {
	const second = int64(time.Second)
	b := transport.TupleBatch{QueryID: 1, HostID: host, TypeIdx: uint8(side)}
	for ; n > 0; n-- {
		ts := clock - rng.Int63n(second/2)
		straggler := rng.Intn(20) == 0
		if straggler {
			ts = clock - second - rng.Int63n(14*second)
		}
		ts = max(ts, 0)
		user := int64(rng.Intn(300))
		rt := refTuple{side: side, req: uint64(len(r.bidTs)), price: float64(rng.Intn(100000)) / 7}
		if side == 0 {
			r.bidTs = append(r.bidTs, ts)
		} else if issued := len(r.bidTs); issued > 0 {
			// An exclusion belongs to a request issued a moment ago — or, as
			// a straggler, to any request so far — and carries the request's
			// creation time, as all of a request's events do.
			back := rng.Intn(min(issued, 40))
			if straggler {
				back = rng.Intn(issued)
			}
			rt.req = uint64(issued - 1 - back)
			if created := r.bidTs[rt.req]; created >= clock-15*second {
				ts = created
			}
			straggler = ts < clock-second
		}
		if straggler {
			r.stragglers++
		}
		if side == 1 {
			rt.reason = []string{"budget", "geo", "cap"}[rng.Intn(3)]
		}
		vals := make([]event.Value, 0, 2)
		for _, col := range r.p.Columns[side] {
			switch col {
			case "user_id":
				vals = append(vals, event.Int(user))
			case "bid_price":
				vals = append(vals, event.Float(rt.price))
			case "reason":
				vals = append(vals, event.Str(rt.reason))
			default:
				r.t.Fatalf("unexpected projected column %q", col)
			}
		}
		b.Tuples = append(b.Tuples, tup(rt.req, ts, vals...))
		r.apply(rt, user, ts, straggler)
	}
	r.e.HandleBatch(b)
}

// finish stops the engine and holds its windows to the reference.
func (r *stragglerRun) finish() {
	t := r.t
	st, _ := r.e.StopQuery(1)
	if st.LateDrops != 0 {
		t.Errorf("%d late or overflow drops in a stream with none", st.LateDrops)
	}
	for _, name := range []string{"scrub_central_state_bytes", "scrub_central_join_pending"} {
		if got := gaugeValue(r.reg, name); got != 0 {
			t.Errorf("%s = %d after the query stopped", name, got)
		}
	}
	wins := r.out.all()
	if len(wins) != len(r.ref) {
		t.Fatalf("%d windows emitted, reference has %d", len(wins), len(r.ref))
	}
	for _, rw := range wins {
		ref := r.ref[rw.WindowStart]
		if ref == nil {
			t.Fatalf("window %d not in the reference", rw.WindowStart)
		}
		if rw.Stats.TuplesIn != ref.tuples {
			t.Errorf("window %d: TuplesIn %d, reference %d", rw.WindowStart, rw.Stats.TuplesIn, ref.tuples)
		}
		r.sp.check(t, rw, ref)
	}
}

// TestStragglersMatchReference: tuples up to fifteen windows late land in
// windows that stayed open for them, and every window emits what the plain
// reference folds — row for row, float sums and top_k lists bit for bit,
// a straggler's join with a partner buffered long before included.
func TestStragglersMatchReference(t *testing.T) {
	for _, sp := range stragglerPlans {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sp.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newStragglerRun(t, sp)
				for step := int64(0); step < 420; step++ {
					side := 0
					if r.p.IsJoin() {
						side = rng.Intn(2)
					}
					clock := int64(time.Second) + step*int64(time.Second)/7
					r.batch(rng, fmt.Sprintf("h%d", rng.Intn(3)), side, 1+rng.Intn(12), clock)
				}
				r.finish()

				// The test only means something if stragglers did land in old
				// windows and, for the join, met their partners there.
				if r.stragglers < 50 {
					t.Errorf("only %d stragglers in the stream", r.stragglers)
				}
				if r.p.IsJoin() && r.lateJoins < 20 {
					t.Errorf("only %d joins were formed by a straggler with a partner buffered before it", r.lateJoins)
				}
			})
		}
	}
}
