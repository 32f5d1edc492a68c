package expr

import (
	"strings"
	"testing"

	"scrub/internal/agg"
	"scrub/internal/event"
)

var bidSchema = event.MustSchema("bid",
	event.FieldDef{Name: "user_id", Kind: event.KindInt},
	event.FieldDef{Name: "city", Kind: event.KindString},
	event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
	event.FieldDef{Name: "won", Kind: event.KindBool},
	event.FieldDef{Name: "segments", Kind: event.KindList, Elem: event.KindInt},
)

var clickSchema = event.MustSchema("click",
	event.FieldDef{Name: "user_id", Kind: event.KindInt},
	event.FieldDef{Name: "line_item_id", Kind: event.KindInt},
)

func singleResolver() SchemaResolver {
	return SchemaResolver{Schemas: []*event.Schema{bidSchema}}
}

func joinResolver() SchemaResolver {
	return SchemaResolver{Schemas: []*event.Schema{bidSchema, clickSchema}}
}

func bidEvent(t *testing.T) *event.Event {
	t.Helper()
	return event.NewBuilder(bidSchema).
		SetRequestID(10).
		SetTimeNanos(1000).
		Int("user_id", 42).
		Str("city", "san jose").
		Float("bid_price", 1.5).
		Bool("won", true).
		MustBuild()
}

// evalOn type-checks, compiles, and evaluates n against a bid event.
func evalOn(t *testing.T, n Node) event.Value {
	t.Helper()
	checked, _, err := Check(n, singleResolver())
	if err != nil {
		t.Fatalf("Check(%s): %v", n, err)
	}
	ev, err := Compile(checked)
	if err != nil {
		t.Fatalf("Compile(%s): %v", n, err)
	}
	return ev(EventRow{Event: bidEvent(t)})
}

func TestFieldResolution(t *testing.T) {
	// Unqualified unique name resolves.
	n, k, err := Check(FieldRef{Name: "city"}, singleResolver())
	if err != nil || k != event.KindString {
		t.Fatalf("Check(city): %v, %v", k, err)
	}
	if f := n.(FieldRef); f.Type != "bid" {
		t.Errorf("resolved type = %q, want bid", f.Type)
	}
	// Ambiguous across join sides.
	if _, _, err := Check(FieldRef{Name: "user_id"}, joinResolver()); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous field error missing: %v", err)
	}
	// Qualification disambiguates.
	if _, k, err := Check(FieldRef{Type: "click", Name: "user_id"}, joinResolver()); err != nil || k != event.KindInt {
		t.Errorf("qualified field: %v, %v", k, err)
	}
	// System fields resolve anywhere, even in joins.
	if _, k, err := Check(FieldRef{Name: "request_id"}, joinResolver()); err != nil || k != event.KindInt {
		t.Errorf("request_id: %v, %v", k, err)
	}
	if _, k, err := Check(FieldRef{Name: "ts"}, singleResolver()); err != nil || k != event.KindTime {
		t.Errorf("ts: %v, %v", k, err)
	}
	// Unknowns.
	if _, _, err := Check(FieldRef{Name: "ghost"}, singleResolver()); err == nil {
		t.Error("unknown field should fail")
	}
	if _, _, err := Check(FieldRef{Type: "ghost", Name: "x"}, singleResolver()); err == nil {
		t.Error("unknown type should fail")
	}
	if _, _, err := Check(FieldRef{Type: "bid", Name: "ghost"}, singleResolver()); err == nil {
		t.Error("unknown qualified field should fail")
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		n    Node
		want string
	}{
		{Binary{Op: OpAdd, L: Lit{event.Int(2)}, R: Lit{event.Int(3)}}, "5"},
		{Binary{Op: OpSub, L: Lit{event.Int(2)}, R: Lit{event.Int(5)}}, "-3"},
		{Binary{Op: OpMul, L: Lit{event.Int(4)}, R: FieldRef{Name: "bid_price"}}, "6"},
		{Binary{Op: OpDiv, L: Lit{event.Int(7)}, R: Lit{event.Int(2)}}, "3.5"},
		{Binary{Op: OpMod, L: Lit{event.Int(7)}, R: Lit{event.Int(3)}}, "1"},
		{Unary{Op: OpNeg, X: Lit{event.Int(9)}}, "-9"},
		{Unary{Op: OpNeg, X: FieldRef{Name: "bid_price"}}, "-1.5"},
		{Binary{Op: OpAdd, L: Lit{event.Float(0.5)}, R: Lit{event.Int(1)}}, "1.5"},
	}
	for _, tc := range cases {
		if got := evalOn(t, tc.n); got.String() != tc.want {
			t.Errorf("%s = %v, want %s", tc.n, got, tc.want)
		}
	}
}

func TestArithmeticTypeErrors(t *testing.T) {
	bad := []Node{
		Binary{Op: OpAdd, L: Lit{event.Str("x")}, R: Lit{event.Int(1)}},
		Binary{Op: OpMod, L: Lit{event.Float(1)}, R: Lit{event.Int(1)}},
		Unary{Op: OpNeg, X: Lit{event.Str("x")}},
		Unary{Op: OpNot, X: Lit{event.Int(1)}},
		Binary{Op: OpAnd, L: Lit{event.Bool(true)}, R: Lit{event.Int(1)}},
		Binary{Op: OpLike, L: Lit{event.Int(1)}, R: Lit{event.Str("%")}},
		Binary{Op: OpEq, L: Lit{event.Str("x")}, R: Lit{event.Int(1)}},
	}
	for _, n := range bad {
		if _, _, err := Check(n, singleResolver()); err == nil {
			t.Errorf("Check(%s) should fail", n)
		}
	}
}

func TestDivModByZero(t *testing.T) {
	if v := evalOn(t, Binary{Op: OpDiv, L: Lit{event.Int(1)}, R: Lit{event.Int(0)}}); v.IsValid() {
		t.Errorf("1/0 = %v, want Invalid", v)
	}
	if v := evalOn(t, Binary{Op: OpMod, L: Lit{event.Int(1)}, R: Lit{event.Int(0)}}); v.IsValid() {
		t.Errorf("1%%0 = %v, want Invalid", v)
	}
	if v := evalOn(t, Binary{Op: OpDiv, L: Lit{event.Float(1)}, R: Lit{event.Float(0)}}); v.IsValid() {
		t.Errorf("1.0/0.0 = %v, want Invalid", v)
	}
}

func TestComparisons(t *testing.T) {
	type tc struct {
		n    Node
		want bool
	}
	price := FieldRef{Name: "bid_price"}
	cases := []tc{
		{Binary{Op: OpEq, L: price, R: Lit{event.Float(1.5)}}, true},
		{Binary{Op: OpNe, L: price, R: Lit{event.Float(1.5)}}, false},
		{Binary{Op: OpLt, L: price, R: Lit{event.Int(2)}}, true},
		{Binary{Op: OpLe, L: price, R: Lit{event.Float(1.5)}}, true},
		{Binary{Op: OpGt, L: price, R: Lit{event.Int(1)}}, true},
		{Binary{Op: OpGe, L: price, R: Lit{event.Int(2)}}, false},
		{Binary{Op: OpEq, L: FieldRef{Name: "city"}, R: Lit{event.Str("san jose")}}, true},
	}
	for _, c := range cases {
		got, ok := evalOn(t, c.n).AsBool()
		if !ok || got != c.want {
			t.Errorf("%s = %v, %v; want %v", c.n, got, ok, c.want)
		}
	}
}

func TestBooleanNullSemantics(t *testing.T) {
	// Comparisons against missing fields yield Invalid; AND/OR shortcut.
	missing := Binary{Op: OpEq, L: FieldRef{Name: "city"}, R: Lit{event.Str("x")}}
	ev := event.NewBuilder(bidSchema).Int("user_id", 1).SetTimeNanos(1).MustBuild() // city unset

	checked, _, err := Check(Binary{Op: OpAnd, L: missing, R: Lit{event.Bool(false)}}, singleResolver())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := Compile(checked)
	if v := e(EventRow{Event: ev}); !v.IsValid() || v.String() != "false" {
		t.Errorf("invalid AND false = %v, want false", v)
	}

	checked, _, _ = Check(Binary{Op: OpOr, L: missing, R: Lit{event.Bool(true)}}, singleResolver())
	e, _ = Compile(checked)
	if v := e(EventRow{Event: ev}); v.String() != "true" {
		t.Errorf("invalid OR true = %v, want true", v)
	}

	checked, _, _ = Check(Binary{Op: OpAnd, L: missing, R: Lit{event.Bool(true)}}, singleResolver())
	e, _ = Compile(checked)
	if v := e(EventRow{Event: ev}); v.IsValid() {
		t.Errorf("invalid AND true = %v, want Invalid", v)
	}

	// Predicate() drops rows with Invalid results.
	p := Predicate(e)
	if p(EventRow{Event: ev}) {
		t.Error("Predicate should reject Invalid")
	}
}

func TestInList(t *testing.T) {
	in := In{X: FieldRef{Name: "user_id"}, List: []Node{Lit{event.Int(1)}, Lit{event.Int(42)}}}
	if got, _ := evalOn(t, in).AsBool(); !got {
		t.Error("42 in (1, 42) should be true")
	}
	notIn := In{X: FieldRef{Name: "user_id"}, List: []Node{Lit{event.Int(1)}}, Negate: true}
	if got, _ := evalOn(t, notIn).AsBool(); !got {
		t.Error("42 not in (1) should be true")
	}
	// Type errors.
	if _, _, err := Check(In{X: FieldRef{Name: "user_id"}, List: []Node{Lit{event.Str("x")}}}, singleResolver()); err == nil {
		t.Error("kind-mismatched in-list should fail")
	}
	if _, _, err := Check(In{X: FieldRef{Name: "user_id"}, List: nil}, singleResolver()); err == nil {
		t.Error("empty in-list should fail")
	}
	if _, _, err := Check(In{X: FieldRef{Name: "user_id"}, List: []Node{FieldRef{Name: "user_id"}}}, singleResolver()); err == nil {
		t.Error("non-literal in-list should fail")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"san jose", "san%", true},
		{"san jose", "%jose", true},
		{"san jose", "%an j%", true},
		{"san jose", "san_jose", true},
		{"san jose", "s%j%e", true},
		{"san jose", "jose%", false},
		{"san jose", "san jose", true},
		{"san jose", "san", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%b%c%", true},
		{"ab", "a_c", false},
	}
	for _, c := range cases {
		m := likeMatcher{chunks: strings.Split(c.pat, "%")}
		if got := m.match(c.s); got != c.want {
			t.Errorf("like(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
	// Through the full pipeline.
	n := Binary{Op: OpLike, L: FieldRef{Name: "city"}, R: Lit{event.Str("san%")}}
	if got, _ := evalOn(t, n).AsBool(); !got {
		t.Error("city like 'san%' should match")
	}
	// Non-literal pattern rejected.
	if _, _, err := Check(Binary{Op: OpLike, L: FieldRef{Name: "city"}, R: FieldRef{Name: "city"}}, singleResolver()); err == nil {
		t.Error("non-literal like pattern should fail")
	}
}

func TestContains(t *testing.T) {
	n := Binary{Op: OpContains, L: FieldRef{Name: "city"}, R: Lit{event.Str("jose")}}
	if got, _ := evalOn(t, n).AsBool(); !got {
		t.Error("contains failed")
	}
}

func TestCallsRejected(t *testing.T) {
	if _, _, err := Check(Call{Name: "COUNT", Star: true}, singleResolver()); err == nil {
		t.Error("aggregate call should be rejected by Check")
	}
	if _, _, err := Check(Call{Name: "frobnicate"}, singleResolver()); err == nil {
		t.Error("unknown function should be rejected")
	}
	if _, err := Compile(Call{Name: "COUNT"}); err == nil {
		t.Error("Compile of Call should fail")
	}
}

func TestAggRef(t *testing.T) {
	a := AggRef{Index: 0, Spec: agg.Spec{Kind: agg.KindAvg}, Arg: FieldRef{Name: "bid_price"}}
	n := Binary{Op: OpMul, L: Lit{event.Int(1000)}, R: a}
	checked, k, err := Check(n, singleResolver())
	if err != nil || k != event.KindFloat {
		t.Fatalf("Check(1000*AVG): %v, %v", k, err)
	}
	e, err := Compile(checked)
	if err != nil {
		t.Fatal(err)
	}
	row := aggRow{vals: []event.Value{event.Float(0.0025)}}
	if got, _ := e(row).AsFloat(); got != 2.5 {
		t.Errorf("1000*AVG = %v", e(row))
	}
	// Result kinds per aggregate.
	kinds := map[agg.Kind]event.Kind{
		agg.KindCountStar:     event.KindInt,
		agg.KindCount:         event.KindInt,
		agg.KindCountDistinct: event.KindInt,
		agg.KindAvg:           event.KindFloat,
		agg.KindTopK:          event.KindList,
	}
	for ak, want := range kinds {
		_, k, err := Check(AggRef{Spec: agg.Spec{Kind: ak}, Arg: FieldRef{Name: "user_id"}}, singleResolver())
		if err != nil || k != want {
			t.Errorf("agg %v result kind = %v, %v; want %v", ak, k, err, want)
		}
	}
	// SUM/MIN/MAX inherit arg kind.
	_, k, _ = Check(AggRef{Spec: agg.Spec{Kind: agg.KindSum}, Arg: FieldRef{Name: "bid_price"}}, singleResolver())
	if k != event.KindFloat {
		t.Errorf("SUM(float) kind = %v", k)
	}
	_, k, _ = Check(AggRef{Spec: agg.Spec{Kind: agg.KindMin}, Arg: FieldRef{Name: "city"}}, singleResolver())
	if k != event.KindString {
		t.Errorf("MIN(string) kind = %v", k)
	}
	// SUM of a string is rejected.
	if _, _, err := Check(AggRef{Spec: agg.Spec{Kind: agg.KindSum}, Arg: FieldRef{Name: "city"}}, singleResolver()); err == nil {
		t.Error("SUM(string) should fail")
	}
	// SUM without argument is rejected.
	if _, _, err := Check(AggRef{Spec: agg.Spec{Kind: agg.KindSum}}, singleResolver()); err == nil {
		t.Error("SUM without arg should fail")
	}
}

type aggRow struct{ vals []event.Value }

func (aggRow) Field(string, string) event.Value { return event.Invalid }
func (r aggRow) Agg(i int) event.Value {
	if i < 0 || i >= len(r.vals) {
		return event.Invalid
	}
	return r.vals[i]
}

func TestEventRowTypeQualification(t *testing.T) {
	ev := bidEvent(t)
	r := EventRow{Event: ev}
	if v := r.Field("bid", "city"); v.String() != "san jose" {
		t.Errorf("qualified field = %v", v)
	}
	if v := r.Field("", "city"); v.String() != "san jose" {
		t.Errorf("unqualified field = %v", v)
	}
	if v := r.Field("click", "user_id"); v.IsValid() {
		t.Error("wrong-type qualifier should be Invalid")
	}
	if r.Agg(0).IsValid() {
		t.Error("EventRow.Agg should be Invalid")
	}
}

func TestFieldsAndWalk(t *testing.T) {
	n := Binary{Op: OpAnd,
		L: Binary{Op: OpGt, L: FieldRef{Name: "bid_price"}, R: Lit{event.Int(1)}},
		R: In{X: FieldRef{Name: "city"}, List: []Node{Lit{event.Str("sf")}}},
	}
	fields := func(n Node) []FieldRef {
		var fs []FieldRef
		Walk(n, func(x Node) bool {
			if f, ok := x.(FieldRef); ok {
				fs = append(fs, f)
			}
			return true
		})
		return fs
	}
	fs := fields(n)
	if len(fs) != 2 || fs[0].Name != "bid_price" || fs[1].Name != "city" {
		t.Errorf("Walk's fields = %v", fs)
	}
	// Walk visits every occurrence, both operands of a binary node.
	dup := Binary{Op: OpAdd, L: FieldRef{Name: "user_id"}, R: FieldRef{Name: "user_id"}}
	if got := fields(dup); len(got) != 2 {
		t.Errorf("Walk's fields of a duplicate = %v", got)
	}
	// Returning false prunes the subtree.
	pruned := 0
	Walk(n, func(x Node) bool {
		if _, ok := x.(In); ok {
			return false
		}
		if _, ok := x.(FieldRef); ok {
			pruned++
		}
		return true
	})
	if pruned != 1 {
		t.Errorf("Walk pruned at In visited %d fields, want 1", pruned)
	}
}

func TestHasAggregate(t *testing.T) {
	if !HasAggregate(Call{Name: "COUNT", Star: true}) {
		t.Error("COUNT(*) call should be detected")
	}
	if !HasAggregate(Binary{Op: OpMul, L: Lit{event.Int(2)}, R: AggRef{Spec: agg.Spec{Kind: agg.KindSum}}}) {
		t.Error("nested AggRef should be detected")
	}
	if HasAggregate(FieldRef{Name: "x"}) {
		t.Error("field ref is not an aggregate")
	}
}

func TestNodeStrings(t *testing.T) {
	cases := map[string]Node{
		`"x"`:             Lit{event.Str("x")},
		"3":               Lit{event.Int(3)},
		"bid.city":        FieldRef{Type: "bid", Name: "city"},
		"(not won)":       Unary{Op: OpNot, X: FieldRef{Name: "won"}},
		"(a = 1)":         Binary{Op: OpEq, L: FieldRef{Name: "a"}, R: Lit{event.Int(1)}},
		"(a in (1, 2))":   In{X: FieldRef{Name: "a"}, List: []Node{Lit{event.Int(1)}, Lit{event.Int(2)}}},
		"(a not in (1))":  In{X: FieldRef{Name: "a"}, List: []Node{Lit{event.Int(1)}}, Negate: true},
		"COUNT(*)":        Call{Name: "COUNT", Star: true},
		"SUM(x)":          Call{Name: "SUM", Args: []Node{FieldRef{Name: "x"}}},
		"agg[0]:COUNT(*)": AggRef{Spec: agg.Spec{Kind: agg.KindCountStar}},
		"agg[1]:SUM(x)":   AggRef{Index: 1, Spec: agg.Spec{Kind: agg.KindSum}, Arg: FieldRef{Name: "x"}},
	}
	for want, n := range cases {
		if got := n.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func BenchmarkPredicateEval(b *testing.B) {
	n := Binary{Op: OpAnd,
		L: Binary{Op: OpGt, L: FieldRef{Name: "bid_price"}, R: Lit{event.Float(1.0)}},
		R: Binary{Op: OpEq, L: FieldRef{Name: "city"}, R: Lit{event.Str("san jose")}},
	}
	checked, _, err := Check(n, SchemaResolver{Schemas: []*event.Schema{bidSchema}})
	if err != nil {
		b.Fatal(err)
	}
	e, err := Compile(checked)
	if err != nil {
		b.Fatal(err)
	}
	p := Predicate(e)
	ev := event.NewBuilder(bidSchema).
		Int("user_id", 42).Str("city", "san jose").Float("bid_price", 1.5).
		SetTimeNanos(1).MustBuild()
	row := EventRow{Event: ev}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p(row) {
			b.Fatal("predicate should pass")
		}
	}
}

func TestContainsOnLists(t *testing.T) {
	n := Binary{Op: OpContains, L: FieldRef{Name: "segments"}, R: Lit{event.Int(2)}}
	checked, k, err := Check(n, singleResolver())
	if err != nil || k != event.KindBool {
		t.Fatalf("Check(list contains): %v, %v", k, err)
	}
	e, err := Compile(checked)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.NewBuilder(bidSchema).
		Set("segments", event.IntList(1, 2, 3)).SetTimeNanos(1).MustBuild()
	if got, _ := e(EventRow{Event: ev}).AsBool(); !got {
		t.Error("[1 2 3] contains 2 should be true")
	}
	n2 := Binary{Op: OpContains, L: FieldRef{Name: "segments"}, R: Lit{event.Int(9)}}
	checked2, _, _ := Check(n2, singleResolver())
	e2, _ := Compile(checked2)
	if got, _ := e2(EventRow{Event: ev}).AsBool(); got {
		t.Error("[1 2 3] contains 9 should be false")
	}
	// Missing list field → Invalid.
	empty := event.NewBuilder(bidSchema).SetTimeNanos(1).MustBuild()
	if e2(EventRow{Event: empty}).IsValid() {
		t.Error("contains on missing list should be Invalid")
	}
	// List on the right is rejected.
	bad := Binary{Op: OpContains, L: FieldRef{Name: "segments"}, R: FieldRef{Name: "segments"}}
	if _, _, err := Check(bad, singleResolver()); err == nil {
		t.Error("list contains list should fail")
	}
}

func TestOpStringsComplete(t *testing.T) {
	for op := OpAdd; op <= OpContains; op++ {
		if op.String() == "?" {
			t.Errorf("op %d has no spelling", op)
		}
	}
	if OpInvalid.String() != "?" {
		t.Error("invalid op should render ?")
	}
}
