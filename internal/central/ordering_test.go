package central

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// Satellite: ORDER BY with equal sort keys must be reproducible — the
// render path used an unstable sort with no tie-break, so rows under a
// LIMIT could differ between runs and between Engine and ShardedEngine.

func TestCompareOrderedTieBreak(t *testing.T) {
	p := &Plan{Plan: ql.Plan{OrderBy: []ql.OrderKey{{Col: 0, Desc: false}}}}
	a := []event.Value{event.Int(1), event.Str("a")}
	b := []event.Value{event.Int(1), event.Str("b")}
	if got := compareOrdered(p, a, b); got >= 0 {
		t.Errorf("equal keys must tie-break on the full row: compare = %d, want < 0", got)
	}
	if got := compareOrdered(p, b, a); got <= 0 {
		t.Errorf("tie-break must be antisymmetric: compare = %d, want > 0", got)
	}
	if got := compareOrdered(p, a, a); got != 0 {
		t.Errorf("identical rows must compare equal, got %d", got)
	}
	// Desc applies to the key but the tie-break stays canonical.
	pd := &Plan{Plan: ql.Plan{OrderBy: []ql.OrderKey{{Col: 0, Desc: true}}}}
	c := []event.Value{event.Int(2), event.Str("z")}
	if got := compareOrdered(pd, c, a); got >= 0 {
		t.Errorf("desc key: larger key must sort first, got %d", got)
	}
	if got := compareOrdered(pd, a, b); got >= 0 {
		t.Errorf("desc key ties still tie-break ascending on the row, got %d", got)
	}
}

func TestCompareRowsTotalOrder(t *testing.T) {
	rows := [][]event.Value{
		{event.Int(1), event.Str("b")},
		{event.Int(1), event.Str("a")},
		{event.Int(0), event.Str("z")},
		{event.Str("x"), event.Int(3)}, // incomparable kinds fall back to strings
	}
	for _, a := range rows {
		for _, b := range rows {
			ab, ba := compareRows(a, b), compareRows(b, a)
			if ab != -ba {
				t.Errorf("compareRows not antisymmetric: %v vs %v: %d, %d", a, b, ab, ba)
			}
		}
	}
}

// TestOrderByLimitTiesDeterministic feeds rows whose ORDER BY key is
// constant in shuffled arrival orders through the single-node and a
// 4-shard engine; the rows surviving LIMIT must be identical everywhere.
func TestOrderByLimitTiesDeterministic(t *testing.T) {
	mkBatches := func(rng *rand.Rand) []transport.TupleBatch {
		var tuples []transport.Tuple
		for u := 0; u < 20; u++ {
			tuples = append(tuples, transport.Tuple{
				RequestID: uint64(u),
				TsNanos:   sec(1) + int64(u),
				// exchange_id constant: every row ties on the sort key.
				Values: []event.Value{event.Int(int64(u)), event.Int(7), event.Float(1.5)},
			})
		}
		rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
		return []transport.TupleBatch{{QueryID: 1, HostID: "h", TypeIdx: 0, Tuples: tuples}}
	}

	src := `select user_id, exchange_id from bid order by exchange_id limit 5 window 10s`
	var want [][]event.Value
	for seed := int64(0); seed < 6; seed++ {
		for _, shards := range []int{0, 1, 4} { // 0 = single-node Engine
			var ex Executor
			if shards == 0 {
				ex = NewEngine()
			} else {
				se, err := NewShardedEngine(shards)
				if err != nil {
					t.Fatal(err)
				}
				ex = se
			}
			c := &collector{}
			p := buildPlan(t, src, 1, 1, 1)
			p.Lateness = time.Hour
			if err := ex.StartQuery(p, c.emit); err != nil {
				t.Fatal(err)
			}
			for _, b := range mkBatches(rand.New(rand.NewSource(seed))) {
				ex.HandleBatch(transport.CloneBatch(b))
			}
			ex.StopQuery(1)
			wins := c.all()
			if len(wins) != 1 {
				t.Fatalf("seed %d shards %d: %d windows, want 1", seed, shards, len(wins))
			}
			got := wins[0].Rows
			if len(got) != 5 {
				t.Fatalf("seed %d shards %d: %d rows, want 5", seed, shards, len(got))
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d shards %d: LIMIT under ties not reproducible:\ngot  %v\nwant %v",
					seed, shards, got, want)
			}
		}
	}
}

// TestRawRowsCanonicalOrder pins the canonical ordering of raw result
// rows without ORDER BY: arrival order differs between engines, so the
// render path sorts rows by full-row comparison.
func TestRawRowsCanonicalOrder(t *testing.T) {
	c := &collector{}
	e := NewEngine()
	p := buildPlan(t, `select user_id from bid window 10s`, 1, 1, 1)
	p.Lateness = time.Hour
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h", TypeIdx: 0, Tuples: []transport.Tuple{
		{RequestID: 1, TsNanos: sec(1), Values: []event.Value{event.Int(9), event.Int(1), event.Float(0)}},
		{RequestID: 2, TsNanos: sec(2), Values: []event.Value{event.Int(3), event.Int(1), event.Float(0)}},
		{RequestID: 3, TsNanos: sec(3), Values: []event.Value{event.Int(6), event.Int(1), event.Float(0)}},
	}})
	e.StopQuery(1)
	wins := c.all()
	if len(wins) != 1 {
		t.Fatalf("%d windows, want 1", len(wins))
	}
	var got []int64
	for _, row := range wins[0].Rows {
		n, _ := row[0].AsInt()
		got = append(got, n)
	}
	if !reflect.DeepEqual(got, []int64{3, 6, 9}) {
		t.Errorf("raw rows = %v, want canonical order [3 6 9]", got)
	}
}
