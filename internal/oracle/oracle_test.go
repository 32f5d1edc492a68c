package oracle

import (
	"math"
	"reflect"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

func buildPlan(t *testing.T, src string) central.Plan {
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
	cp := central.FromPlan(p, 1, 0, 0, 1, 1)
	cp.Lateness = time.Hour
	return cp
}

func sec(n int64) int64 { return n * int64(time.Second) }

// runEngine feeds the oracle events through a real single-node Engine and
// returns its windows, flushed via StopQuery.
func runEngine(t *testing.T, p central.Plan, events []Event) []transport.ResultWindow {
	t.Helper()
	e := central.NewEngine()
	var wins []transport.ResultWindow
	if err := e.StartQuery(p, func(rw transport.ResultWindow) { wins = append(wins, rw) }); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		e.HandleBatch(transport.TupleBatch{
			QueryID: p.QueryID,
			HostID:  ev.Host,
			TypeIdx: uint8(ev.TypeIdx),
			Tuples: []transport.Tuple{{
				RequestID: ev.RequestID,
				TsNanos:   ev.TsNanos,
				Values:    append([]event.Value(nil), ev.Values...),
			}},
		})
	}
	e.StopQuery(p.QueryID)
	return wins
}

func bid(host string, req uint64, ts int64, user, exch int64, price float64) Event {
	return Event{Host: host, TypeIdx: 0, RequestID: req, TsNanos: ts,
		Values: []event.Value{event.Int(user), event.Int(exch), event.Float(price)}}
}

func TestOracleGroupedCount(t *testing.T) {
	p := buildPlan(t, `select user_id, count(*) from bid group by user_id window 10s`)
	events := []Event{
		bid("h1", 1, sec(1), 42, 1, 0.5),
		bid("h1", 2, sec(2), 42, 1, 0.5),
		bid("h2", 3, sec(3), 7, 1, 0.5),
		bid("h1", 4, sec(15), 42, 1, 0.5),
	}
	got, err := Eval(p, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d windows, want 2", len(got))
	}
	want0 := [][]event.Value{
		{event.Int(7), event.Int(1)},
		{event.Int(42), event.Int(2)},
	}
	if !reflect.DeepEqual(got[0].Rows, want0) {
		t.Errorf("window[0] rows = %v, want %v", got[0].Rows, want0)
	}
	if got[0].Start != 0 || got[0].End != sec(10) {
		t.Errorf("window[0] span = [%d,%d)", got[0].Start, got[0].End)
	}
	if got[1].Start != sec(10) {
		t.Errorf("window[1] start = %d", got[1].Start)
	}
}

func TestOracleMatchesEngineExact(t *testing.T) {
	queries := []string{
		`select user_id, count(*) from bid group by user_id window 10s`,
		`select exchange_id, sum(bid_price), avg(bid_price) from bid group by exchange_id window 10s`,
		`select count(*), min(user_id), max(user_id) from bid window 5s`,
		`select user_id, bid_price from bid where exchange_id = 1 window 10s`,
		`select user_id, exchange_id from bid order by exchange_id desc, user_id limit 3 window 10s`,
		`select count(*) from bid where user_id > 10 group by exchange_id having count(*) > 1 window 10s`,
	}
	events := []Event{
		bid("h1", 1, sec(1), 42, 1, 2.0),
		bid("h1", 2, sec(2), 42, 2, 3.5),
		bid("h2", 3, sec(3), 7, 1, 1.0),
		bid("h2", 4, sec(4), 99, 1, 4.25),
		bid("h1", 5, sec(8), 42, 2, 0.75),
		bid("h2", 6, sec(12), 7, 1, 9.0),
		bid("h1", 7, sec(13), 42, 1, 6.5),
	}
	for _, src := range queries {
		t.Run(src, func(t *testing.T) {
			p := buildPlan(t, src)
			// Project values down to the plan's column set for this query.
			evs := make([]Event, len(events))
			full := []string{"user_id", "exchange_id", "bid_price"}
			for i, ev := range events {
				proj := make([]event.Value, len(p.Columns[0]))
				for j, col := range p.Columns[0] {
					for fi, name := range full {
						if name == col {
							proj[j] = ev.Values[fi]
						}
					}
				}
				evs[i] = ev
				evs[i].Values = proj
			}
			want := runEngine(t, p, evs)
			got, err := Eval(p, evs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("oracle %d windows, engine %d", len(got), len(want))
			}
			for i := range got {
				if got[i].Start != want[i].WindowStart || got[i].End != want[i].WindowEnd {
					t.Errorf("window %d span: oracle [%d,%d) engine [%d,%d)",
						i, got[i].Start, got[i].End, want[i].WindowStart, want[i].WindowEnd)
				}
				if !reflect.DeepEqual(got[i].Rows, want[i].Rows) {
					t.Errorf("window %d rows:\noracle %v\nengine %v", i, got[i].Rows, want[i].Rows)
				}
			}
		})
	}
}

func TestOracleMatchesEngineJoin(t *testing.T) {
	src := `select bid.user_id, exclusion.reason from bid, exclusion where bid.exchange_id = 1 window 10s`
	p := buildPlan(t, src)
	excl := func(host string, req uint64, ts int64, li int64, reason string) Event {
		proj := make([]event.Value, len(p.Columns[1]))
		for j, col := range p.Columns[1] {
			switch col {
			case "line_item_id":
				proj[j] = event.Int(li)
			case "reason":
				proj[j] = event.Str(reason)
			}
		}
		return Event{Host: host, TypeIdx: 1, RequestID: req, TsNanos: ts, Values: proj}
	}
	bidp := func(host string, req uint64, ts int64, user, exch int64) Event {
		proj := make([]event.Value, len(p.Columns[0]))
		for j, col := range p.Columns[0] {
			switch col {
			case "user_id":
				proj[j] = event.Int(user)
			case "exchange_id":
				proj[j] = event.Int(exch)
			}
		}
		return Event{Host: host, TypeIdx: 0, RequestID: req, TsNanos: ts, Values: proj}
	}
	events := []Event{
		bidp("h1", 1, sec(1), 42, 1),
		excl("h2", 1, sec(2), 100, "blocked"),
		// Note: `bid.exchange_id = 1` is pushed down to HostPred by the
		// analyzer; this test feeds the oracle and engine the same
		// *unfiltered* stream on purpose, so req 2 joins like any other.
		bidp("h1", 2, sec(3), 7, 2),
		excl("h2", 2, sec(4), 101, "viewability"),
		bidp("h1", 3, sec(5), 9, 1), // no exclusion partner in window
		excl("h2", 4, sec(6), 102, "orphan"),
		bidp("h1", 1, sec(7), 43, 1), // second bid for req 1: two join rows
	}
	want := runEngine(t, p, events)
	got, err := Eval(p, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("oracle %d windows, engine %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Rows, want[i].Rows) {
			t.Errorf("window %d rows:\noracle %v\nengine %v", i, got[i].Rows, want[i].Rows)
		}
	}
	// Sanity: req 1 contributes two joined rows (both bids × one
	// exclusion), req 2 one, req 3 and the orphan exclusion none.
	if len(got[0].Rows) != 3 {
		t.Errorf("join window rows = %d, want 3: %v", len(got[0].Rows), got[0].Rows)
	}
}

func TestOracleSlidingWindows(t *testing.T) {
	src := `select count(*) from bid window 10s slide 5s`
	p := buildPlan(t, src)
	events := []Event{
		bid("h1", 1, sec(3), 1, 1, 0),
		bid("h1", 2, sec(7), 2, 1, 0),
	}
	// Project to plan columns (count(*) needs no user columns, but plan
	// may still carry some).
	for i := range events {
		proj := make([]event.Value, len(p.Columns[0]))
		full := []string{"user_id", "exchange_id", "bid_price"}
		for j, col := range p.Columns[0] {
			for fi, name := range full {
				if name == col {
					proj[j] = events[i].Values[fi]
				}
			}
		}
		events[i].Values = proj
	}
	want := runEngine(t, p, events)
	got, err := Eval(p, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("oracle %d windows, engine %d: oracle %+v", len(got), len(want), got)
	}
	for i := range got {
		if got[i].Start != want[i].WindowStart {
			t.Errorf("window %d start: oracle %d engine %d", i, got[i].Start, want[i].WindowStart)
		}
		if !reflect.DeepEqual(got[i].Rows, want[i].Rows) {
			t.Errorf("window %d rows:\noracle %v\nengine %v", i, got[i].Rows, want[i].Rows)
		}
	}
}

// TestOracleAggregatesByHand holds Eval's aggregates to answers worked out
// by hand rather than to the engine's, which the oracle is the reference
// for: NULL inputs, a SUM over ints and floats (the oracle takes values as
// they come, so one column may carry both), string MIN/MAX, and a join
// window with no joined row.
func TestOracleAggregatesByHand(t *testing.T) {
	null, i, f, s := event.Invalid, event.Int, event.Float, event.Str
	for _, tc := range []struct {
		src    string
		events []map[string]event.Value // "type" is the plan's type index; "ts" is in seconds
		want   [][][]event.Value        // rows per window, in start order
	}{{
		src: `select count(*), count(bid_price), sum(bid_price), avg(bid_price), min(bid_price), max(user_id) from bid window 10s`,
		events: []map[string]event.Value{
			{"ts": i(1), "bid_price": i(2), "user_id": i(5)},
			{"ts": i(2), "bid_price": f(0.5), "user_id": i(9)},
			{"ts": i(3)},
			{"ts": i(11), "bid_price": i(3), "user_id": i(1)},
			{"ts": i(12), "bid_price": i(4), "user_id": i(2)},
			{"ts": i(21)},
		},
		want: [][][]event.Value{
			{{i(3), i(2), f(2.5), f(1.25), f(0.5), i(9)}},
			{{i(2), i(2), i(7), f(3.5), i(3), i(2)}},
			{{i(1), i(0), null, null, null, null}},
		},
	}, {
		src: `select min(reason), max(reason), count(reason) from exclusion window 10s`,
		events: []map[string]event.Value{
			{"ts": i(1), "reason": s("viewability")},
			{"ts": i(2)},
			{"ts": i(3), "reason": s("blocked")},
			{"ts": i(4), "reason": s("geo")},
		},
		want: [][][]event.Value{{{s("blocked"), s("viewability"), i(3)}}},
	}, {
		src: `select count(*), sum(bid.bid_price), max(exclusion.reason) from bid, exclusion window 10s`,
		events: []map[string]event.Value{
			{"req": i(1), "ts": i(1), "bid_price": f(1.5)},
			{"type": i(1), "req": i(1), "ts": i(2), "reason": s("geo")},
			{"req": i(3), "ts": i(11), "bid_price": f(2)},
			{"type": i(1), "req": i(4), "ts": i(12), "reason": s("orphan")},
		},
		want: [][][]event.Value{
			{{i(1), f(1.5), s("geo")}},
			{{i(0), null, null}},
		},
	}} {
		t.Run(tc.src, func(t *testing.T) {
			p := buildPlan(t, tc.src)
			events := make([]Event, len(tc.events))
			for n, fields := range tc.events {
				typ, _ := fields["type"].AsInt()
				req, _ := fields["req"].AsInt()
				ts, _ := fields["ts"].AsInt()
				e := Event{Host: "h", TypeIdx: int(typ), RequestID: uint64(req), TsNanos: sec(ts)}
				for _, col := range p.Columns[typ] {
					e.Values = append(e.Values, fields[col])
				}
				events[n] = e
			}
			got, err := Eval(p, events)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%d windows, want %d: %+v", len(got), len(tc.want), got)
			}
			for w := range got {
				if !reflect.DeepEqual(got[w].Rows, tc.want[w]) {
					t.Errorf("window %d rows = %v, want %v", w, got[w].Rows, tc.want[w])
				}
			}
		})
	}
}

func TestOracleTopKAndDistinctExact(t *testing.T) {
	src := `select top_k(user_id, 2), count_distinct(exchange_id) from bid window 10s`
	p := buildPlan(t, src)
	var events []Event
	mk := func(req uint64, ts int64, user, exch int64) {
		proj := make([]event.Value, len(p.Columns[0]))
		for j, col := range p.Columns[0] {
			switch col {
			case "user_id":
				proj[j] = event.Int(user)
			case "exchange_id":
				proj[j] = event.Int(exch)
			}
		}
		events = append(events, Event{Host: "h", TypeIdx: 0, RequestID: req, TsNanos: ts, Values: proj})
	}
	mk(1, sec(1), 5, 1)
	mk(2, sec(2), 5, 2)
	mk(3, sec(3), 5, 1)
	mk(4, sec(4), 8, 3)
	mk(5, sec(5), 8, 1)
	mk(6, sec(6), 2, 2)
	got, err := Eval(p, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d windows, want 1", len(got))
	}
	topk := event.List(event.KindString, event.Str("5=3"), event.Str("8=2"))
	if row := got[0].Rows[0]; !row[0].Equal(topk) || !row[1].Equal(event.Int(3)) {
		t.Errorf("TOP_K, COUNT_DISTINCT = %v, want %v, 3", row, topk)
	}
	if truth := got[0].AggExact; len(truth) != 2 || !math.IsNaN(truth[0]) || truth[1] != 3 {
		t.Errorf("AggExact = %v, want [NaN 3]: TOP_K is not numeric, COUNT_DISTINCT counts exactly", truth)
	}
	// Small universe: engine's SpaceSaving capacity far exceeds 3 items,
	// so the rendered TOP_K list must match the oracle's exactly.
	want := runEngine(t, p, events)
	if len(want) != 1 {
		t.Fatalf("engine %d windows, want 1", len(want))
	}
	if !reflect.DeepEqual(got[0].Rows[0][0], want[0].Rows[0][0]) {
		t.Errorf("TOP_K render: oracle %v engine %v", got[0].Rows[0][0], want[0].Rows[0][0])
	}
}
