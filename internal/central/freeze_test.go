package central

import (
	"bytes"
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

// freezeAll puts every live window of a query into its cold form — what
// the sweep does to the ones it finds idle, done to all of them. Tests
// call it after every batch: the worst thrash the rule could ever produce.
func freezeAll(e *Engine, id uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs := e.queries[id]
	qs.win.Each(func(ws *winState) {
		if ws.frozen == nil {
			e.freeze(qs, ws)
		}
	})
}

// frozenWindows counts a query's cold windows and its open ones.
func frozenWindows(e *Engine, id uint64) (frozen, open int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries[id].win.Each(func(ws *winState) {
		open++
		if ws.frozen != nil {
			frozen++
		}
	})
	return frozen, open
}

// freezePlan is one plan TestFreezeThawIsInvisible and FuzzFreezeThaw run
// a stream through, with the reference its windows are held to.
type freezePlan struct {
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
	topk     agg.Aggregator
	rows     [][]event.Value
}

func newRefWindow() *refWindow {
	return &refWindow{
		count: map[string]int64{}, sum: map[string]float64{},
		topk: agg.MustNew(agg.Spec{Kind: agg.KindTopK, K: 3}),
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

var freezePlans = []freezePlan{
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
	// go through the partial too. The two engines are compared with each
	// other only.
	{name: "moments", query: `select count(*), sum(bid.bid_price) from bid window 1s sample events 50%`,
		check: func(*testing.T, transport.ResultWindow, *refWindow) {}},
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

// sameWindows requires two engines' emitted windows to be equal row for
// row and bit for bit, bounds and counters included.
func sameWindows(t *testing.T, got, want []transport.ResultWindow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d windows emitted, %d by the other engine", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.WindowStart != w.WindowStart || g.Stats.TuplesIn != w.Stats.TuplesIn ||
			g.Stats.HostsReporting != w.Stats.HostsReporting || g.Stats.LateDrops != w.Stats.LateDrops || g.Approx != w.Approx {
			t.Errorf("window %d: header %+v %v, other engine's %+v %v", g.WindowStart, g.Stats, g.Approx, w.Stats, w.Approx)
		}
		if !sameRows(g.Rows, w.Rows) {
			t.Errorf("window %d: rows differ:\n %v\n %v", g.WindowStart, g.Rows, w.Rows)
		}
		if len(g.ErrBounds) != len(w.ErrBounds) {
			t.Errorf("window %d: %d error bounds, other engine's %d", g.WindowStart, len(g.ErrBounds), len(w.ErrBounds))
			continue
		}
		for k := range g.ErrBounds {
			if math.Float64bits(g.ErrBounds[k]) != math.Float64bits(w.ErrBounds[k]) {
				t.Errorf("window %d: bound %d is %v, other engine's %v", g.WindowStart, k, g.ErrBounds[k], w.ErrBounds[k])
			}
		}
	}
}

// freezeRun drives one seeded stream through two engines — one freezing
// by the rule, one on which every open window is frozen after every batch
// — and through the reference. Event time moves about a seventh of a
// window a batch over some sixty windows; lateness is twenty windows, so
// nothing is late; one tuple in twenty is a straggler up to fifteen
// windows old, which by then is cold under the rule too. With join set,
// both sides of a request are shipped, the second often as a straggler
// whose partner was buffered long before its window froze.
type freezeRun struct {
	t         *testing.T
	p         Plan
	fp        freezePlan
	rule      *Engine
	thrash    *Engine
	regs      [2]*obs.Registry
	out       [2]collector
	ref       map[int64]*refWindow
	bidTs     []int64 // by request id: the event time of its bid
	lateJoins int     // joins a straggler formed with a partner buffered before
	maxFrozen int
}

func newFreezeRun(t *testing.T, fp freezePlan) *freezeRun {
	r := &freezeRun{t: t, fp: fp, ref: map[int64]*refWindow{}}
	r.p = buildPlan(t, fp.query, 1, 3, 3)
	r.p.Lateness = 20 * time.Second
	if fp.slide != 0 {
		r.p.Slide = fp.slide
	}
	for i, e := range []**Engine{&r.rule, &r.thrash} {
		r.regs[i] = obs.NewRegistry()
		*e = NewEngineWith(Options{Metrics: r.regs[i]})
		if err := (*e).StartQuery(r.p, r.out[i].emit); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// apply folds one tuple into the reference's covering windows, ascending
// by start as the engine visits them.
func (r *freezeRun) apply(rt refTuple, user int64, ts int64, straggler bool) {
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
func (r *freezeRun) batch(rng *rand.Rand, host string, side int, n int, clock int64) {
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
	r.rule.HandleBatch(transport.CloneBatch(b))
	r.thrash.HandleBatch(transport.CloneBatch(b))
	freezeAll(r.thrash, 1)
	if frozen, _ := frozenWindows(r.rule, 1); frozen > r.maxFrozen {
		r.maxFrozen = frozen
	}
}

// finish stops both engines and holds their windows to each other and to
// the reference.
func (r *freezeRun) finish() (rule, thrash []transport.ResultWindow) {
	t := r.t
	for i, e := range []*Engine{r.rule, r.thrash} {
		st, _ := e.StopQuery(1)
		if st.LateDrops != 0 {
			t.Errorf("engine %d: %d late or overflow drops in a stream with none", i, st.LateDrops)
		}
		for _, name := range []string{"scrub_central_state_bytes", "scrub_central_join_pending", "scrub_central_windows_frozen"} {
			if got := gaugeValue(r.regs[i], name); got != 0 {
				t.Errorf("engine %d: %s = %d after the query stopped", i, name, got)
			}
		}
	}
	rule, thrash = r.out[0].all(), r.out[1].all()
	sameWindows(t, thrash, rule)
	if len(rule) != len(r.ref) {
		t.Fatalf("%d windows emitted, reference has %d", len(rule), len(r.ref))
	}
	for _, rw := range rule {
		ref := r.ref[rw.WindowStart]
		if ref == nil {
			t.Fatalf("window %d not in the reference", rw.WindowStart)
		}
		if rw.Stats.TuplesIn != ref.tuples {
			t.Errorf("window %d: TuplesIn %d, reference %d", rw.WindowStart, rw.Stats.TuplesIn, ref.tuples)
		}
		r.fp.check(t, rw, ref)
	}
	return rule, thrash
}

func thawsOf(reg *obs.Registry) uint64 {
	return reg.Counter("scrub_central_window_thaws_total", "").Value()
}

// TestFreezeThawIsInvisible: whenever and however often a window goes
// cold and is thawed again, it emits what it would have emitted anyway —
// row for row, float sums and top_k lists bit for bit.
func TestFreezeThawIsInvisible(t *testing.T) {
	for _, fp := range freezePlans {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", fp.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newFreezeRun(t, fp)
				for step := int64(0); step < 420; step++ {
					side := 0
					if r.p.IsJoin() {
						side = rng.Intn(2)
					}
					clock := int64(time.Second) + step*int64(time.Second)/7
					r.batch(rng, fmt.Sprintf("h%d", rng.Intn(3)), side, 1+rng.Intn(12), clock)
				}
				r.finish()

				// The test only means something if windows did go cold and
				// stragglers did land in them — under the rule too.
				if r.maxFrozen < 10 {
					t.Errorf("at most %d windows were cold at once under the rule, want most of the ~20 open", r.maxFrozen)
				}
				ruleThaws, thrashThaws := thawsOf(r.regs[0]), thawsOf(r.regs[1])
				if ruleThaws < 20 || thrashThaws <= ruleThaws {
					t.Errorf("thaws: %d under the rule, %d when every batch freezes everything", ruleThaws, thrashThaws)
				}
				if r.p.IsJoin() && r.lateJoins < 20 {
					t.Errorf("only %d joins were formed by a straggler with a partner buffered before it", r.lateJoins)
				}
			})
		}
	}
}

// TestCollectFrozenIsVerbatim: a driven engine hands a cold window's
// partial over as the very bytes it kept, and they are the bytes a window
// that was never frozen encodes to.
func TestCollectFrozenIsVerbatim(t *testing.T) {
	p := buildPlan(t, `select bid.user_id, count(*), sum(bid.bid_price), top_k(bid.exchange_id, 2) from bid group by bid.user_id window 1s`, 1, 2, 2)
	// The twins get one window each: a sweep never finds an only window
	// idle, so theirs are never frozen.
	cold := NewEngine()
	twins := []*Engine{NewEngine(), NewEngine(), NewEngine(), NewEngine()}
	for _, e := range append(twins, cold) {
		if err := e.StartDriven(p); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for w := range twins {
		for i := 0; i < 3; i++ {
			b := bidBatch(1, fmt.Sprintf("h%d", i%2))
			for k := 0; k < 50; k++ {
				b.Tuples = append(b.Tuples, tup(uint64(k), sec(int64(w))+rng.Int63n(int64(time.Second)),
					event.Int(int64(rng.Intn(40))), event.Int(int64(rng.Intn(5))), event.Float(rng.NormFloat64())))
			}
			cold.ApplyDriven(transport.CloneBatch(b))
			twins[w].ApplyDriven(transport.CloneBatch(b))
		}
	}
	// Four windows were opened in order: the rule has frozen the first two.
	if frozen, open := frozenWindows(cold, 1); frozen != 2 || open != 4 {
		t.Fatalf("%d of %d windows cold, want 2 of 4", frozen, open)
	}
	want := map[int64][]byte{}
	for _, e := range twins {
		e.mu.Lock()
		qs := e.queries[1]
		qs.win.Each(func(ws *winState) {
			if ws.frozen != nil {
				t.Errorf("twin's window %d was frozen", ws.start)
			}
			want[ws.start] = encodePartial(nil, &qs.plan, ws)
		})
		e.mu.Unlock()
	}
	kept := map[int64][]byte{}
	cold.mu.Lock()
	cold.queries[1].win.Each(func(ws *winState) { kept[ws.start] = ws.frozen })
	cold.mu.Unlock()

	partials, _, _, ok := cold.CollectDriven(1, sec(4))
	if !ok || len(partials) != 4 {
		t.Fatalf("CollectDriven: %d partials, ok=%v", len(partials), ok)
	}
	for _, ep := range partials {
		if !bytes.Equal(ep.Data, want[ep.Start]) {
			t.Errorf("window %d: collected partial differs from the never-frozen twin's encoding", ep.Start)
		}
		if k := kept[ep.Start]; k != nil && (len(ep.Data) != len(k) || &ep.Data[0] != &k[0]) {
			t.Errorf("window %d: a cold window's partial was re-encoded or copied, not handed over", ep.Start)
		}
		if cap(ep.Data) != len(ep.Data) && kept[ep.Start] != nil {
			t.Errorf("window %d: frozen partial holds %d bytes for %d", ep.Start, cap(ep.Data), len(ep.Data))
		}
	}
}

// FuzzFreezeThaw: the bytes drive which plan runs, how event time moves,
// where stragglers land and when the thrashing engine's windows are
// frozen; the two engines and the reference must agree on every window.
func FuzzFreezeThaw(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < len(freezePlans); i++ {
		ops := make([]byte, 96)
		rng.Read(ops)
		ops[0] = byte(i)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 || len(ops) > 256 { // an op is a batch through two engines
			return
		}
		r := newFreezeRun(t, freezePlans[int(ops[0])%len(freezePlans)])
		src := rand.New(rand.NewSource(int64(ops[1])))
		clock := int64(time.Second)
		for _, op := range ops[2:] {
			clock += int64(op&0x0f) * int64(time.Second) / 8 // up to two windows at once
			side := 0
			if r.p.IsJoin() {
				side = int(op >> 4 & 1)
			}
			r.batch(src, fmt.Sprintf("h%d", op>>5&3), side, 1+int(op>>7)*6, clock)
		}
		r.finish()
	})
}
