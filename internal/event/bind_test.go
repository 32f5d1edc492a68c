package event

import (
	"strings"
	"testing"
	"time"
)

// scrubBid mirrors the paper's Figure 1 event-type declaration.
type scrubBid struct {
	ExchangeID int64     `scrub:"exchange_id"`
	City       string    `scrub:"city"`
	Country    string    `scrub:"country"`
	BidPrice   float64   `scrub:"bid_price"`
	CampaignID int64     `scrub:"campaign_id"`
	Segments   []int64   `scrub:"segments"`
	When       time.Time `scrub:"when"`
	internal   int       // untagged+unexported: ignored
	Skipped    int       `scrub:"-"`
}

func TestSchemaOf(t *testing.T) {
	s, err := SchemaOf("bid", scrubBid{})
	if err != nil {
		t.Fatalf("SchemaOf: %v", err)
	}
	if s.Name() != "bid" || s.NumFields() != 7 {
		t.Fatalf("schema = %s", s)
	}
	checks := map[string]Kind{
		"exchange_id": KindInt, "city": KindString, "bid_price": KindFloat,
		"segments": KindList, "when": KindTime,
	}
	for name, kind := range checks {
		if k, ok := s.FieldKind(name); !ok || k != kind {
			t.Errorf("FieldKind(%s) = %v, %v; want %v", name, k, ok, kind)
		}
	}
	if s.FieldIndex("internal") != -1 || s.FieldIndex("Skipped") != -1 {
		t.Error("untagged/skipped fields leaked into schema")
	}
	// Pointer prototype also works.
	if _, err := SchemaOf("bid", &scrubBid{}); err != nil {
		t.Errorf("SchemaOf(pointer): %v", err)
	}
}

func TestSchemaOfErrors(t *testing.T) {
	if _, err := SchemaOf("x", 42); err == nil {
		t.Error("non-struct should fail")
	}
	type empty struct{ A int }
	if _, err := SchemaOf("x", empty{}); err == nil {
		t.Error("no tagged fields should fail")
	}
	type unexported struct {
		a int `scrub:"a"`
	}
	if _, err := SchemaOf("x", unexported{}); err == nil {
		t.Error("unexported tagged field should fail")
	}
	type nested struct {
		A [][]int64 `scrub:"a"`
	}
	if _, err := SchemaOf("x", nested{}); err == nil {
		t.Error("nested list should fail")
	}
	type badType struct {
		A map[string]int `scrub:"a"`
	}
	if _, err := SchemaOf("x", badType{}); err == nil {
		t.Error("map field should fail")
	}
}

func TestMarshal(t *testing.T) {
	s, err := SchemaOf("bid", scrubBid{})
	if err != nil {
		t.Fatal(err)
	}
	when := time.Unix(55, 0)
	bid := scrubBid{
		ExchangeID: 9, City: "porto", Country: "PT", BidPrice: 2.5,
		CampaignID: 4, Segments: []int64{10, 20}, When: when,
	}
	ts := time.Unix(100, 0)
	ev, err := Marshal(s, 123, ts, bid)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if ev.RequestID != 123 || ev.TimeNanos != ts.UnixNano() {
		t.Error("system fields wrong")
	}
	if v, _ := ev.Get("exchange_id").AsInt(); v != 9 {
		t.Error("exchange_id wrong")
	}
	if l, ok := ev.Get("segments").AsList(); !ok || len(l) != 2 || l[1].String() != "20" {
		t.Errorf("segments wrong: %v", ev.Get("segments"))
	}
	if w := ev.Get("when"); w.Kind() != KindTime || !w.Equal(Time(when)) {
		t.Error("when wrong")
	}
	// Pointer value also works.
	if _, err := Marshal(s, 1, ts, &bid); err != nil {
		t.Errorf("Marshal(pointer): %v", err)
	}
}

func TestMarshalErrors(t *testing.T) {
	s, _ := SchemaOf("bid", scrubBid{})
	if _, err := Marshal(s, 1, time.Now(), 42); err == nil {
		t.Error("non-struct should fail")
	}
	var nilBid *scrubBid
	if _, err := Marshal(s, 1, time.Now(), nilBid); err == nil {
		t.Error("nil pointer should fail")
	}
	// Struct whose tags don't exist in the schema.
	type stranger struct {
		A int64 `scrub:"no_such_field"`
	}
	if _, err := Marshal(s, 1, time.Now(), stranger{}); err == nil || !strings.Contains(err.Error(), "no field") {
		t.Errorf("unknown tag should fail, got %v", err)
	}
	// Kind mismatch: city declared string, provide int64 via a shadow struct.
	type shadow struct {
		City int64 `scrub:"city"`
	}
	if _, err := Marshal(s, 1, time.Now(), shadow{City: 3}); err == nil {
		t.Error("kind mismatch should fail")
	}
}
