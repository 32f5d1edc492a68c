package event

import (
	"reflect"
	"strings"
	"testing"
)

func bidSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("bid",
		FieldDef{Name: "exchange_id", Kind: KindInt},
		FieldDef{Name: "city", Kind: KindString},
		FieldDef{Name: "country", Kind: KindString},
		FieldDef{Name: "bid_price", Kind: KindFloat},
		FieldDef{Name: "campaign_id", Kind: KindInt},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name   string
		fields []FieldDef
		errSub string
	}{
		{"", nil, "empty schema name"},
		{"e", []FieldDef{{Name: "", Kind: KindInt}}, "empty name"},
		{"e", []FieldDef{{Name: "request_id", Kind: KindInt}}, "system field"},
		{"e", []FieldDef{{Name: "ts", Kind: KindTime}}, "system field"},
		{"e", []FieldDef{{Name: "a", Kind: KindInt}, {Name: "a", Kind: KindInt}}, "duplicate"},
		{"e", []FieldDef{{Name: "a", Kind: KindInvalid}}, "invalid kind"},
		{"e", []FieldDef{{Name: "a", Kind: KindList, Elem: KindList}}, "invalid kind"},
		{"e", []FieldDef{{Name: "a", Kind: KindList}}, "invalid kind"},
	}
	for _, tc := range cases {
		_, err := NewSchema(tc.name, tc.fields...)
		if err == nil || !strings.Contains(err.Error(), tc.errSub) {
			t.Errorf("NewSchema(%q, %v) err = %v, want contains %q", tc.name, tc.fields, err, tc.errSub)
		}
	}
}

func TestSchemaLookups(t *testing.T) {
	s := bidSchema(t)
	if s.Name() != "bid" || s.NumFields() != 5 {
		t.Fatalf("unexpected schema identity: %s", s)
	}
	if i := s.FieldIndex("city"); i != 1 {
		t.Errorf("FieldIndex(city) = %d, want 1", i)
	}
	if i := s.FieldIndex("nope"); i != -1 {
		t.Errorf("FieldIndex(nope) = %d, want -1", i)
	}
	if k, ok := s.FieldKind("bid_price"); !ok || k != KindFloat {
		t.Errorf("FieldKind(bid_price) = %v, %v", k, ok)
	}
	if k, ok := s.FieldKind(FieldRequestID); !ok || k != KindInt {
		t.Errorf("FieldKind(request_id) = %v, %v; want int", k, ok)
	}
	if k, ok := s.FieldKind(FieldTimestamp); !ok || k != KindTime {
		t.Errorf("FieldKind(ts) = %v, %v; want time", k, ok)
	}
	if _, ok := s.FieldKind("nope"); ok {
		t.Error("FieldKind(nope) should be not-ok")
	}
	if got := s.Field(0); !reflect.DeepEqual(got, FieldDef{Name: "exchange_id", Kind: KindInt}) {
		t.Errorf("Field(0) = %+v", got)
	}
	if !strings.Contains(s.String(), "bid_price float") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := bidSchema(t)
	if err := c.Register(s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Same pointer: no-op.
	if err := c.Register(s); err != nil {
		t.Fatalf("re-Register same: %v", err)
	}
	// Identical definition under same name: ok.
	s2 := bidSchema(t)
	if err := c.Register(s2); err != nil {
		t.Fatalf("re-Register identical: %v", err)
	}
	// Conflicting definition: error.
	conflict := MustSchema("bid", FieldDef{Name: "x", Kind: KindInt})
	if err := c.Register(conflict); err == nil {
		t.Error("conflicting Register should fail")
	}
	if err := c.Register(nil); err == nil {
		t.Error("nil Register should fail")
	}
	got, ok := c.Lookup("bid")
	if !ok || got != s {
		t.Error("Lookup(bid) failed")
	}
	if _, ok := c.Lookup("none"); ok {
		t.Error("Lookup(none) should miss")
	}
	c.MustRegister(MustSchema("click", FieldDef{Name: "line_item_id", Kind: KindInt}))
	if names := c.Names(); !reflect.DeepEqual(names, []string{"bid", "click"}) {
		t.Errorf("Names() = %v", names)
	}
	if c.Len() != 2 {
		t.Errorf("Len() = %d", c.Len())
	}
}

func TestIsSystemField(t *testing.T) {
	if !IsSystemField("request_id") || !IsSystemField("ts") || IsSystemField("city") {
		t.Error("IsSystemField misclassifies")
	}
}
