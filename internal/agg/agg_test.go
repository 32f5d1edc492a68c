package agg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"scrub/internal/event"
)

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"count": KindCount, "SUM": KindSum, "Avg": KindAvg,
		"MIN": KindMin, "max": KindMax,
		"TOP_K": KindTopK, "topk": KindTopK,
		"COUNT_DISTINCT": KindCountDistinct, "countdistinct": KindCountDistinct,
	}
	for name, want := range cases {
		got, ok := ParseKind(name)
		if !ok || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	if _, ok := ParseKind("median"); ok {
		t.Error("ParseKind(median) should fail")
	}
}

func TestKindString(t *testing.T) {
	for k := KindCountStar; k <= KindCountDistinct; k++ {
		if k.String() == "INVALID" {
			t.Errorf("kind %d renders INVALID", k)
		}
	}
	if KindInvalid.String() != "INVALID" {
		t.Error("KindInvalid should render INVALID")
	}
}

func TestNewValidation(t *testing.T) {
	for name, s := range map[string]Spec{
		"TOP_K with k=0":     {Kind: KindTopK, K: 0},
		"bad HLL precision":  {Kind: KindCountDistinct, Prec: 99},
		"invalid kind":       {Kind: KindInvalid},
		"kind past the last": {Kind: KindCountDistinct + 1},
	} {
		if _, err := New(s); err == nil {
			t.Errorf("New: %s should fail", name)
		}
		if _, err := NewLayout([]Spec{{Kind: KindCountStar}, s}); err == nil {
			t.Errorf("NewLayout: %s should fail", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on error")
		}
	}()
	MustNew(Spec{Kind: KindInvalid})
}

func TestCountStarVsCount(t *testing.T) {
	star := MustNew(Spec{Kind: KindCountStar})
	plain := MustNew(Spec{Kind: KindCount})
	inputs := []event.Value{event.Int(1), event.Invalid, event.Str("x"), event.Invalid}
	for _, v := range inputs {
		star.Add(v, 1)
		plain.Add(v, 1)
	}
	if got := star.Result(); got.String() != "4" {
		t.Errorf("COUNT(*) = %v, want 4", got)
	}
	if got := plain.Result(); got.String() != "2" {
		t.Errorf("COUNT = %v, want 2 (NULLs skipped)", got)
	}
}

func TestSum(t *testing.T) {
	s := MustNew(Spec{Kind: KindSum})
	if s.Result().IsValid() {
		t.Error("empty SUM should be Invalid (NULL)")
	}
	s.Add(event.Int(3), 1)
	s.Add(event.Int(-1), 1)
	s.Add(event.Invalid, 1)
	if got, _ := s.Result().AsInt(); got != 2 {
		t.Errorf("int SUM = %v", s.Result())
	}
	// Adding a float switches the result kind.
	s.Add(event.Float(0.5), 1)
	f, ok := s.Result().AsFloat()
	if !ok || math.Abs(f-2.5) > 1e-12 {
		t.Errorf("mixed SUM = %v", s.Result())
	}
	if inputs(s) != 3 {
		t.Errorf("Count = %d", inputs(s))
	}
}

func TestAvg(t *testing.T) {
	a := MustNew(Spec{Kind: KindAvg})
	if a.Result().IsValid() {
		t.Error("empty AVG should be Invalid")
	}
	for _, x := range []float64{1, 2, 3, 4} {
		a.Add(event.Float(x), 1)
	}
	a.Add(event.Str("skip"), 1) // non-numeric skipped
	if f, _ := a.Result().AsFloat(); f != 2.5 {
		t.Errorf("AVG = %v", a.Result())
	}
}

func TestMinMax(t *testing.T) {
	mn := MustNew(Spec{Kind: KindMin})
	mx := MustNew(Spec{Kind: KindMax})
	for _, x := range []int64{5, -3, 9, 0} {
		mn.Add(event.Int(x), 1)
		mx.Add(event.Int(x), 1)
	}
	if got, _ := mn.Result().AsInt(); got != -3 {
		t.Errorf("MIN = %v", mn.Result())
	}
	if got, _ := mx.Result().AsInt(); got != 9 {
		t.Errorf("MAX = %v", mx.Result())
	}
	// Strings compare lexically.
	smn := MustNew(Spec{Kind: KindMin})
	smn.Add(event.Str("pear"), 1)
	smn.Add(event.Str("apple"), 1)
	if got, _ := smn.Result().AsStr(); got != "apple" {
		t.Errorf("string MIN = %v", smn.Result())
	}
	// Incomparable inputs are skipped.
	smn.Add(event.Int(1), 1)
	if got, _ := smn.Result().AsStr(); got != "apple" {
		t.Errorf("MIN after incomparable input = %v", smn.Result())
	}
	if MustNew(Spec{Kind: KindMin}).Result().IsValid() {
		t.Error("empty MIN should be Invalid")
	}
}

func TestTopK(t *testing.T) {
	a := MustNew(Spec{Kind: KindTopK, K: 2})
	for i := 0; i < 50; i++ {
		a.Add(event.Str("hot"), 1)
	}
	for i := 0; i < 30; i++ {
		a.Add(event.Str("warm"), 1)
	}
	for i := 0; i < 100; i++ {
		a.Add(event.Str(fmt.Sprintf("cold-%d", i)), 1)
	}
	a.Add(event.Invalid, 1) // skipped
	entries, ok := topKEntries(a)
	if !ok || len(entries) != 2 {
		t.Fatalf("topKEntries = %v, %v", entries, ok)
	}
	if entries[0].Item != "hot" || entries[1].Item != "warm" {
		t.Errorf("top-2 = %v", entries)
	}
	res := a.Result()
	l, ok := res.AsList()
	if !ok || len(l) != 2 || !strings.HasPrefix(l[0].String(), "hot=") {
		t.Errorf("Result = %v", res)
	}
	if _, ok := topKEntries(MustNew(Spec{Kind: KindSum})); ok {
		t.Error("topKEntries on SUM should be not-ok")
	}
	// The golden row: what fmt.Sprintf("%s=%d") rendered per entry, now
	// cut from one buffer — item bytes as they are, counts in decimal,
	// count order then item order, fewer than k entries when fewer exist.
	g := MustNew(Spec{Kind: KindTopK, K: 4})
	for i, item := range []event.Value{event.Int(-7), event.Str("a=b"), event.Str(""), event.Float(2.5), event.Str("tail")} {
		for n := 0; n < []int{12, 12, 1000001, 3, 1}[i]; n++ {
			g.Add(item, 1)
		}
	}
	if got, want := g.Result().String(), `[=1000001, -7=12, a=b=12, 2.5=3]`; got != want {
		t.Errorf("Result = %s, want %s", got, want)
	}
	if got := MustNew(Spec{Kind: KindTopK, K: 4}).Result().String(); got != `[]` {
		t.Errorf("empty Result = %s", got)
	}
}

func TestCountDistinct(t *testing.T) {
	a := MustNew(Spec{Kind: KindCountDistinct})
	for i := 0; i < 10000; i++ {
		a.Add(event.Int(int64(i%1000)), 1)
	}
	got, _ := a.Result().AsInt()
	if math.Abs(float64(got)-1000)/1000 > 0.05 {
		t.Errorf("COUNT_DISTINCT = %d, want ~1000", got)
	}
	// int/float numeric identity: Int(5) and Float(5.0) are one item.
	b := MustNew(Spec{Kind: KindCountDistinct})
	b.Add(event.Int(5), 1)
	b.Add(event.Float(5.0), 1)
	if got, _ := b.Result().AsInt(); got != 1 {
		t.Errorf("Int(5)+Float(5.0) distinct = %d, want 1", got)
	}
}

func TestMergeAllKinds(t *testing.T) {
	specs := []Spec{
		{Kind: KindCountStar}, {Kind: KindCount}, {Kind: KindSum},
		{Kind: KindAvg}, {Kind: KindMin}, {Kind: KindMax},
		{Kind: KindTopK, K: 3}, {Kind: KindCountDistinct},
	}
	for _, spec := range specs {
		// Build the same stream split across two partials vs whole.
		whole := MustNew(spec)
		p1, p2 := MustNew(spec), MustNew(spec)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 2000; i++ {
			v := event.Int(int64(rng.Intn(50)))
			whole.Add(v, 1)
			if i%2 == 0 {
				p1.Add(v, 1)
			} else {
				p2.Add(v, 1)
			}
		}
		if err := p1.Merge(p2); err != nil {
			t.Fatalf("%v Merge: %v", spec.Kind, err)
		}
		w, m := whole.Result(), p1.Result()
		if !w.Equal(m) {
			t.Errorf("%v: merged %v != whole %v", spec.Kind, m, w)
		}
		if inputs(whole) != inputs(p1) {
			t.Errorf("%v: merged count %d != %d", spec.Kind, inputs(p1), inputs(whole))
		}
	}
}

func TestMergeKindMismatch(t *testing.T) {
	pairs := [][2]Spec{
		{{Kind: KindCount}, {Kind: KindSum}},
		{{Kind: KindSum}, {Kind: KindAvg}},
		{{Kind: KindAvg}, {Kind: KindMin}},
		{{Kind: KindMin}, {Kind: KindMax}}, // min vs max also incompatible
		{{Kind: KindTopK, K: 2}, {Kind: KindCountDistinct}},
		{{Kind: KindCountDistinct}, {Kind: KindCount}},
	}
	for _, p := range pairs {
		a, b := MustNew(p[0]), MustNew(p[1])
		if err := a.Merge(b); err == nil {
			t.Errorf("Merge %v into %v should fail", p[1].Kind, p[0].Kind)
		}
	}
}

func TestMergeEmptyPartials(t *testing.T) {
	a, b := MustNew(Spec{Kind: KindMin}), MustNew(Spec{Kind: KindMin})
	b.Add(event.Int(4), 1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Result().AsInt(); got != 4 {
		t.Errorf("empty-merge MIN = %v", a.Result())
	}
	c := MustNew(Spec{Kind: KindMin})
	if err := a.Merge(c); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Result().AsInt(); got != 4 {
		t.Errorf("merge-of-empty disturbed MIN: %v", a.Result())
	}
}

func TestSumMergeAssociativityQuick(t *testing.T) {
	f := func(xs []int32) bool {
		whole := MustNew(Spec{Kind: KindSum})
		parts := []Aggregator{MustNew(Spec{Kind: KindSum}), MustNew(Spec{Kind: KindSum}), MustNew(Spec{Kind: KindSum})}
		for i, x := range xs {
			v := event.Int(int64(x))
			whole.Add(v, 1)
			parts[i%3].Add(v, 1)
		}
		if err := parts[0].Merge(parts[1]); err != nil {
			return false
		}
		if err := parts[0].Merge(parts[2]); err != nil {
			return false
		}
		if len(xs) == 0 {
			return !parts[0].Result().IsValid() && !whole.Result().IsValid()
		}
		return parts[0].Result().Equal(whole.Result())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaleResult(t *testing.T) {
	if got := ScaleResult(event.Int(100), 10); got.String() != "1000" {
		t.Errorf("scale int = %v", got)
	}
	if got, _ := ScaleResult(event.Float(2.5), 4).AsFloat(); got != 10 {
		t.Error("scale float failed")
	}
	if got := ScaleResult(event.Int(5), 1); got.String() != "5" {
		t.Error("factor 1 should be identity")
	}
	if ScaleResult(event.Invalid, 2).IsValid() {
		t.Error("scaling Invalid should stay Invalid")
	}
	if got := ScaleResult(event.Str("x"), 2); got.String() != "x" {
		t.Error("non-numeric passes through")
	}
	// Rounding.
	if got, _ := ScaleResult(event.Int(1), 2.6).AsInt(); got != 3 {
		t.Errorf("rounded scale = %d, want 3", got)
	}
}

func TestSpecHelpers(t *testing.T) {
	for _, k := range []Kind{KindCountStar, KindCount, KindSum} {
		if !(Spec{Kind: k}).Scalable() {
			t.Errorf("%v should be scalable", k)
		}
	}
	for _, k := range []Kind{KindAvg, KindMin, KindMax, KindTopK, KindCountDistinct} {
		if (Spec{Kind: k}).Scalable() {
			t.Errorf("%v should not be scalable", k)
		}
	}
}

func BenchmarkSumAdd(b *testing.B) {
	a := MustNew(Spec{Kind: KindSum})
	v := event.Float(1.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(v, 1)
	}
}

func BenchmarkCountDistinctAdd(b *testing.B) {
	a := MustNew(Spec{Kind: KindCountDistinct})
	vals := make([]event.Value, 1024)
	for i := range vals {
		vals[i] = event.Int(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Add(vals[i&1023], 1)
	}
}
