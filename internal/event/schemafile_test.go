package event

import (
	"os"
	"path/filepath"
	"testing"
)

const demoSchemaText = `
# Turn bidding platform events
bid exchange_id:int user_id:long city:string bid_price:double when:time
auction line_item_ids:list<int> winner_bid_price:float
flag active:bool
`

func TestParseSchemas(t *testing.T) {
	schemas, err := ParseSchemas(demoSchemaText)
	if err != nil {
		t.Fatalf("ParseSchemas: %v", err)
	}
	if len(schemas) != 3 {
		t.Fatalf("schemas = %d", len(schemas))
	}
	bid := schemas[0]
	if bid.Name() != "bid" || bid.NumFields() != 5 {
		t.Fatalf("bid = %s", bid)
	}
	if k, _ := bid.FieldKind("user_id"); k != KindInt {
		t.Error("long should alias int")
	}
	if k, _ := bid.FieldKind("bid_price"); k != KindFloat {
		t.Error("double should alias float")
	}
	if k, _ := bid.FieldKind("when"); k != KindTime {
		t.Error("time kind")
	}
	auction := schemas[1]
	if f := auction.Field(0); f.Kind != KindList || f.Elem != KindInt {
		t.Errorf("list field = %+v", f)
	}
}

func TestParseSchemasErrors(t *testing.T) {
	bad := []string{
		"bid field_without_type",
		"bid x:blob",
		"bid :int",
		"bid x:",
		"bid x:list",
		"bid x:list<list>",
		"bid request_id:int", // system-field collision
		"bid a:int a:int",    // duplicate
	}
	for _, src := range bad {
		if _, err := ParseSchemas(src); err == nil {
			t.Errorf("ParseSchemas(%q) should fail", src)
		}
	}
}

func TestLoadSchemaFile(t *testing.T) {
	dir := t.TempDir()
	file := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Types already in the catalog (a daemon's -adplatform set) stay beside
	// the file's.
	cat := NewCatalog()
	cat.MustRegister(MustSchema("impression", FieldDef{Name: "ad_id", Kind: KindInt}))
	if err := LoadSchemaFile(cat, file("demo.schema", demoSchemaText)); err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 4 {
		t.Fatalf("catalog = %v", cat.Names())
	}
	if s, ok := cat.Lookup("auction"); !ok || s.Field(0).Kind != KindList {
		t.Errorf("auction = %v", s)
	}
	// Conflicting duplicate type names fail the load, as does a missing file.
	if err := LoadSchemaFile(NewCatalog(), file("dup.schema", "a x:int\na x:string")); err == nil {
		t.Error("conflicting duplicate type should fail")
	}
	if err := LoadSchemaFile(NewCatalog(), filepath.Join(dir, "missing.schema")); err == nil {
		t.Error("missing file should fail")
	}
}
