package central

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/transport"
	"scrub/internal/wire"
)

// TestPartialCodecMatchesShardedEngine drives identical batches through a
// ShardedEngine and through the exported driven surface (N driven engines
// + serialized partials + QueryRuntime merge — the distributed
// coordinator's data path) and requires the rendered windows to match
// bit for bit.
func TestPartialCodecMatchesShardedEngine(t *testing.T) {
	queries := []string{
		`select count(*) from bid`,
		`select exchange_id, count(*), sum(bid_price) from bid group by exchange_id`,
		`select avg(bid_price), min(bid_price), max(user_id) from bid`,
		`select top_k(exchange_id, 3), count_distinct(user_id) from bid`,
		`select user_id, bid_price from bid order by bid_price desc limit 7`,
		`select count(*) from bid sample events 50%`,
	}
	for qi, src := range queries {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("q%d-s%d", qi, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(qi*10 + shards)))
				var batches []transport.TupleBatch
				for h := 0; h < 3; h++ {
					host := fmt.Sprintf("h%d", h)
					for bi := 0; bi < 6; bi++ {
						var tuples []transport.Tuple
						for k := 0; k < 10; k++ {
							tuples = append(tuples, tup(
								uint64(rng.Intn(500)),
								sec(int64(rng.Intn(10))),
								event.Int(int64(rng.Intn(50))),
								event.Int(int64(rng.Intn(5))),
								event.Float(rng.NormFloat64()*10),
							))
						}
						batches = append(batches, bidBatch(1, host, tuples...))
					}
				}
				bound := sec(8)

				// Arm 1: in-process ShardedEngine, collect+flush via a
				// fake wall clock tick at bound+lateness.
				se, err := NewShardedEngine(shards)
				if err != nil {
					t.Fatal(err)
				}
				c := &collector{}
				p := buildPlan(t, src, 1, 4, 2)
				p.Lateness = time.Hour
				if err := se.StartQuery(p, c.emit); err != nil {
					t.Fatal(err)
				}
				for _, b := range batches {
					se.HandleBatch(transport.CloneBatch(b))
				}
				se.Tick(bound + int64(p.Lateness))
				want := c.all()

				// Arm 2: driven engines + partial codec + QueryRuntime.
				qr, err := CompileQuery(p)
				if err != nil {
					t.Fatal(err)
				}
				drv := make([]*Engine, shards)
				for i := range drv {
					drv[i] = NewEngine()
					if err := drv[i].StartDriven(p); err != nil {
						t.Fatal(err)
					}
				}
				for _, b := range batches {
					sub := make([][]transport.Tuple, shards)
					for _, tp := range b.Tuples {
						i := int(tp.RequestID % uint64(shards))
						sub[i] = append(sub[i], tp)
					}
					for i, tuples := range sub {
						if len(tuples) == 0 {
							continue
						}
						if _, ok := drv[i].ApplyDriven(transport.CloneBatch(transport.TupleBatch{
							QueryID: 1, HostID: b.HostID, TypeIdx: b.TypeIdx, Tuples: tuples,
						})); !ok {
							t.Fatal("ApplyDriven: unknown query")
						}
					}
				}
				merged := make(map[int64]*PartialWindow)
				for _, e := range drv {
					partials, _, _, ok := e.CollectDriven(1, bound)
					if !ok {
						t.Fatal("CollectDriven: unknown query")
					}
					for _, ep := range partials {
						pw, err := qr.DecodePartial(ep.Data)
						if err != nil {
							t.Fatalf("DecodePartial: %v", err)
						}
						if dst, ok := merged[ep.Start]; ok {
							qr.Merge(dst, pw)
						} else {
							merged[ep.Start] = pw
						}
					}
				}
				var got []transport.ResultWindow
				var starts []int64
				for start := range merged {
					starts = append(starts, start)
				}
				for i := range starts {
					for j := i + 1; j < len(starts); j++ {
						if starts[j] < starts[i] {
							starts[i], starts[j] = starts[j], starts[i]
						}
					}
				}
				for _, start := range starts {
					got = append(got, qr.Render(start, merged[start], nil))
				}

				if len(got) != len(want) {
					t.Fatalf("window counts: driven %d vs sharded %d", len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					// The mini-merger fills only what renderWindow fills;
					// blank the deployment-level fields on the reference.
					w.Stats.HostDrops, w.Stats.LateDrops = 0, 0
					w.Degraded, w.BudgetShed, w.Streams = false, false, nil
					if w.WindowStart != g.WindowStart || w.WindowEnd != g.WindowEnd {
						t.Fatalf("window %d span: [%d,%d) vs [%d,%d)", i, g.WindowStart, g.WindowEnd, w.WindowStart, w.WindowEnd)
					}
					if w.Stats != g.Stats {
						t.Fatalf("window %d stats: %+v vs %+v", i, g.Stats, w.Stats)
					}
					if w.Approx != g.Approx {
						t.Fatalf("window %d approx: %v vs %v", i, g.Approx, w.Approx)
					}
					if !reflect.DeepEqual(w.Rows, g.Rows) {
						t.Fatalf("window %d rows:\n got %v\nwant %v", i, g.Rows, w.Rows)
					}
					if len(w.ErrBounds) != len(g.ErrBounds) {
						t.Fatalf("window %d bounds len: %d vs %d", i, len(g.ErrBounds), len(w.ErrBounds))
					}
					for j := range w.ErrBounds {
						wb, gb := w.ErrBounds[j], g.ErrBounds[j]
						if math.IsNaN(wb) != math.IsNaN(gb) || (!math.IsNaN(wb) && math.Float64bits(wb) != math.Float64bits(gb)) {
							t.Fatalf("window %d bound %d: %v vs %v", i, j, gb, wb)
						}
					}
				}
			})
		}
	}
}

// reencode is a decoded window's partial, encoded again.
func reencode(p *Plan, ws *winState) []byte {
	var c wire.Coder
	codePartial(&c, p, ws)
	return c.Buf
}

// TestDecodePartialRejectsOverflowingCount: a host's moment count that
// does not fit an int is malformed. Taken as it came, 2^63 reads as −1.
func TestDecodePartialRejectsOverflowingCount(t *testing.T) {
	qr, err := CompileQuery(buildPlan(t, `select count(*), sum(bid_price) from bid sample events 50%`, 1, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	partial := func(n uint64) []byte {
		b := []byte{1, 1, 1, 2, 'h', '0'} // one tuple of weight 1, from h0, with
		b = binary.AppendUvarint(b, n)    // n moments
		for range 2 {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(2)) // t
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(2)) // v
		}
		return append(b, 0, 0) // no groups, no raw rows
	}
	if _, err := qr.DecodePartial(partial(2)); err != nil {
		t.Fatalf("a well-formed partial: %v", err)
	}
	if _, err := qr.DecodePartial(partial(1 << 63)); err == nil {
		t.Fatal("a moment count of 2^63 decoded")
	}
}

// TestDecodePartialRejectsStringRef: a string ref (packJoin) is legal only
// in a join arena. A group key in a partial that spells one is malformed:
// decoding fails, and nothing reads the slot table the decoded window
// does not have.
func TestDecodePartialRejectsStringRef(t *testing.T) {
	p := buildPlan(t, `select exclusion.reason, count(*) from exclusion group by exclusion.reason window 10s`, 1, 1, 1)
	qr, err := CompileQuery(p)
	if err != nil {
		t.Fatal(err)
	}
	e := NewShardEngine(nil)
	if err := e.StartDriven(p); err != nil {
		t.Fatal(err)
	}
	e.ApplyDriven(transport.TupleBatch{QueryID: 1, HostID: "h0", TypeIdx: 0, Tuples: []transport.Tuple{tup(1, sec(1), event.Str("geo"))}})
	partials, ok := e.DrainDriven(1)
	if !ok || len(partials) != 1 {
		t.Fatalf("DrainDriven: %d partials, ok=%v", len(partials), ok)
	}
	good := partials[0].Data
	if _, err := qr.DecodePartial(good); err != nil {
		t.Fatalf("the partial as encoded: %v", err)
	}
	key := event.AppendValue(nil, event.Str("geo"))
	at := bytes.Index(good, key)
	if at < 0 {
		t.Fatal("the group key is not in the partial")
	}
	for _, ref := range []byte{strRef, strRef + 1, strRef + strSlots - 1} {
		bad := append(append(append([]byte(nil), good[:at]...), ref), good[at+len(key):]...)
		if _, err := qr.DecodePartial(bad); err == nil {
			t.Errorf("a group key of ref byte %#x decoded", ref)
		}
	}
}

// TestDecodePartialHoldsHostsToPlan: a host's moments are coded after its
// name only under a plan that keeps them, as many as the plan keeps, and
// a host is listed once. The window's weight is never below its tuples,
// a moment's variance sum is neither negative nor NaN, and a sketch has
// the shape the plan gives it: top_k(_, 3)'s summary 64 counters,
// count_distinct's estimator precision 14, and a plan with neither
// aggregates nor a group by has no groups. A partial that breaks any of
// these is malformed.
func TestDecodePartialHoldsHostsToPlan(t *testing.T) {
	host := func(name string, moments int, v float64) []byte { // each moment's sums t = 4, v
		b := []byte{byte(len(name))}
		b = append(b, name...)
		if moments < 0 {
			return b
		}
		b = append(b, byte(moments))
		for range moments {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(4))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	weighed := func(w byte, hosts ...[]byte) []byte {
		b := []byte{1, w, byte(len(hosts))} // one tuple of weight w
		for _, h := range hosts {
			b = append(b, h...)
		}
		return append(b, 0, 0) // no groups, no raw rows
	}
	partial := func(hosts ...[]byte) []byte { return weighed(1, hosts...) }
	stated := func(state ...byte) []byte { // one tuple, from h0, in the one group of an ungrouped plan
		b := append([]byte{1, 1, 1}, host("h0", -1, 1)...)
		b = append(b, 1, 0) // one group, its key of no values
		b = append(b, state...)
		return append(b, 0) // no raw rows
	}
	topK := func(capacity byte) []byte { return []byte{1, capacity, 1, 1, 'x', 1, 0} } // n, then one entry x of count 1
	distinct := func(precision byte) []byte { return append([]byte{1, precision}, make([]byte, 1<<precision)...) }
	cases := []struct {
		name  string
		query string
		b     []byte
		ok    bool
	}{
		{"moments kept", `select count(*), sum(bid_price) from bid`, partial(host("h0", 2, 1), host("h1", 2, 1)), true},
		{"one moment short", `select count(*), sum(bid_price) from bid`, partial(host("h0", 1, 1)), false},
		{"one moment over", `select count(*), sum(bid_price) from bid`, partial(host("h0", 3, 1)), false},
		{"repeated host", `select count(*), sum(bid_price) from bid`, partial(host("h0", 2, 1), host("h0", 2, 1)), false},
		{"no moments kept", `select avg(bid_price), max(user_id) from bid`, partial(host("h0", -1, 1), host("h1", -1, 1)), true},
		{"moments a plan does not keep", `select avg(bid_price), max(user_id) from bid`, partial(host("h0", 2, 1)), false},
		{"grouped: no moments", `select exchange_id, count(*) from bid group by exchange_id`, partial(host("h0", -1, 1)), true},
		{"grouped: repeated host", `select exchange_id, count(*) from bid group by exchange_id`, partial(host("h0", -1, 1), host("h0", -1, 1)), false},
		{"a governed tuple", `select count(*), sum(bid_price) from bid`, weighed(4, host("h0", 2, 12)), true},
		{"weight below the tuples", `select exchange_id, count(*) from bid group by exchange_id`, weighed(0, host("h0", -1, 1)), false},
		{"a negative variance", `select count(*), sum(bid_price) from bid`, partial(host("h0", 2, -1)), false},
		{"a NaN variance", `select count(*), sum(bid_price) from bid`, partial(host("h0", 2, math.NaN())), false},
		{"top_k at the plan's capacity", `select top_k(exchange_id, 3) from bid`, stated(topK(64)...), true},
		{"top_k of capacity 1", `select top_k(exchange_id, 3) from bid`, stated(topK(1)...), false},
		{"top_k of a wider plan's capacity", `select top_k(exchange_id, 3) from bid`, stated(topK(72)...), false},
		{"count_distinct at the plan's precision", `select count_distinct(user_id) from bid`, stated(distinct(14)...), true},
		{"count_distinct of precision 4", `select count_distinct(user_id) from bid`, stated(distinct(4)...), false},
		{"raw rows: none", `select user_id, bid_price from bid`, []byte{0, 0, 0, 0, 0}, true},
		{"raw rows: a group of no key", `select user_id, bid_price from bid`, []byte{0, 0, 0, 1, 0, 0}, false},
		{"raw rows: a group, cut short", `select user_id, bid_price from bid`, []byte{0, 0, 0, 1, 0}, false},
	}
	for _, tc := range cases {
		qr, err := CompileQuery(buildPlan(t, tc.query, 1, 3, 3))
		if err != nil {
			t.Fatal(err)
		}
		pw, err := qr.DecodePartial(tc.b)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok %v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && !bytes.Equal(reencode(qr.Plan(), pw.ws), tc.b) {
			t.Errorf("%s: re-encodes as %x, decoded from %x", tc.name, reencode(qr.Plan(), pw.ws), tc.b)
		}
	}
}
