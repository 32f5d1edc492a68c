package logbase

import (
	"testing"
	"time"

	"scrub/internal/event"
)

var bidSchema = event.MustSchema("bid",
	event.FieldDef{Name: "user_id", Kind: event.KindInt},
	event.FieldDef{Name: "exchange_id", Kind: event.KindInt},
	event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
)

var clickSchema = event.MustSchema("click",
	event.FieldDef{Name: "line_item_id", Kind: event.KindInt},
)

func testCatalog() *event.Catalog {
	cat := event.NewCatalog()
	cat.MustRegister(bidSchema)
	cat.MustRegister(clickSchema)
	return cat
}

func bidEv(req uint64, user int64, price float64, tsSec int64) *event.Event {
	// +1ns: the Builder treats a zero timestamp as "unset, use now".
	return event.NewBuilder(bidSchema).
		SetRequestID(req).SetTimeNanos(tsSec*int64(time.Second)+1).
		Int("user_id", user).Int("exchange_id", 1).Float("bid_price", price).
		MustBuild()
}

func TestLoggerAccountsFullBytes(t *testing.T) {
	store := NewLogStore()
	l := NewLogger("h1", store)
	ev := bidEv(1, 42, 1.5, 1)
	l.Log(ev)
	want := len(event.AppendEvent(nil, ev))
	if store.Len() != 1 || store.Bytes() != uint64(want) {
		t.Errorf("store %d events %d bytes, want 1 event %d bytes (full event)", store.Len(), store.Bytes(), want)
	}
}

func TestBatchQueryMatchesScrubSemantics(t *testing.T) {
	store := NewLogStore()
	l1 := NewLogger("h1", store)
	l2 := NewLogger("h2", store)
	// Window [0,10): user 42×2 on h1, 42×1 + 7×1 on h2. Window [10,20):
	// 42×1. A low-price event is filtered by the WHERE.
	l1.Log(bidEv(1, 42, 2.0, 1))
	l1.Log(bidEv(2, 42, 2.0, 2))
	l1.Log(bidEv(3, 42, 0.1, 3)) // filtered
	l2.Log(bidEv(4, 42, 2.0, 4))
	l2.Log(bidEv(5, 7, 2.0, 5))
	l2.Log(bidEv(6, 42, 2.0, 15))

	res, err := store.RunQuery(
		`select bid.user_id, count(*) from bid where bid.bid_price > 1.0 group by bid.user_id window 10s`,
		testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 6 || res.Matched != 5 {
		t.Errorf("scanned %d matched %d", res.Scanned, res.Matched)
	}
	if len(res.Windows) != 2 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	counts := map[string]string{}
	for _, row := range res.Windows[0].Rows {
		counts[row[0].String()] = row[1].String()
	}
	if counts["42"] != "3" || counts["7"] != "1" {
		t.Errorf("window 0 counts = %v", counts)
	}
	if len(res.Windows[1].Rows) != 1 || res.Windows[1].Rows[0][1].String() != "1" {
		t.Errorf("window 1 rows = %v", res.Windows[1].Rows)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
}

func TestBatchJoin(t *testing.T) {
	store := NewLogStore()
	l := NewLogger("h1", store)
	l.Log(bidEv(1, 42, 2.0, 1))
	l.Log(event.NewBuilder(clickSchema).
		SetRequestID(1).SetTimeNanos(2*int64(time.Second)).
		Int("line_item_id", 9).MustBuild())
	l.Log(bidEv(2, 43, 2.0, 3)) // no click

	res, err := store.RunQuery(
		`select bid.user_id, count(*) from bid, click group by bid.user_id window 10s`,
		testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 1 || len(res.Windows[0].Rows) != 1 {
		t.Fatalf("windows = %+v", res.Windows)
	}
	row := res.Windows[0].Rows[0]
	if row[0].String() != "42" || row[1].String() != "1" {
		t.Errorf("join row = %v", row)
	}
}

func TestBatchCrossHostWindowsMerge(t *testing.T) {
	// Host streams replay sequentially; windows must still merge across
	// hosts (regression test for watermark-induced late drops).
	store := NewLogStore()
	for h := 0; h < 5; h++ {
		l := NewLogger("host-"+string(rune('a'+h)), store)
		for i := 0; i < 10; i++ {
			l.Log(bidEv(uint64(h*100+i), 1, 2.0, int64(i)))
		}
	}
	res, err := store.RunQuery(`select count(*) from bid window 10s`, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 1 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	if got := res.Windows[0].Rows[0][0].String(); got != "50" {
		t.Errorf("count = %s, want 50 (no late drops in batch)", got)
	}
	if res.Windows[0].Stats.LateDrops != 0 {
		t.Errorf("late drops = %d", res.Windows[0].Stats.LateDrops)
	}
}

func TestBatchQueryErrors(t *testing.T) {
	store := NewLogStore()
	if _, err := store.RunQuery(`not a query`, testCatalog()); err == nil {
		t.Error("parse error expected")
	}
	if _, err := store.RunQuery(`select count(*) from ghost`, testCatalog()); err == nil {
		t.Error("analyze error expected")
	}
	// Empty store: valid query, zero windows... an ungrouped aggregate
	// still emits nothing because no window was ever opened.
	res, err := store.RunQuery(`select count(*) from bid`, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 0 || res.Scanned != 0 {
		t.Errorf("empty store result = %+v", res)
	}
}

func TestShippedBytesDwarfProjected(t *testing.T) {
	// The architectural point: full-event logging ships far more than a
	// Scrub projection would. A bid event has 3 fields (+2 system);
	// the spam query needs only user_id.
	store := NewLogStore()
	l := NewLogger("h1", store)
	for i := 0; i < 1000; i++ {
		l.Log(bidEv(uint64(i), int64(i%10), 1.5, 1))
	}
	full := store.Bytes()
	// Approximate Scrub per-tuple cost: request id + ts + one int value.
	scrubApprox := uint64(1000 * (8 + 8 + 9))
	if full*2 < 3*scrubApprox { // ≥1.5× even for this minimal 3-field schema
		t.Errorf("full bytes %d not clearly above projected approx %d", full, scrubApprox)
	}
}
