package event

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindBool: "bool", KindInt: "int", KindFloat: "float",
		KindString: "string", KindTime: "time", KindList: "list",
		KindInvalid: "invalid", Kind(99): "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKindAliases(t *testing.T) {
	aliases := map[string]Kind{
		"bool": KindBool, "boolean": KindBool,
		"int": KindInt, "long": KindInt, "INT64": KindInt,
		"float": KindFloat, "double": KindFloat,
		"string": KindString,
		"time":   KindTime, "date": KindTime, "timestamp": KindTime,
	}
	for s, want := range aliases {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should fail")
	}
}

func TestValueAccessors(t *testing.T) {
	now := time.Unix(1234, 5678)
	tests := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
		{Int(-42), KindInt, "-42"},
		{Float(2.5), KindFloat, "2.5"},
		{Str("hi"), KindString, "hi"},
		{Time(now), KindTime, now.UTC().Format(time.RFC3339Nano)},
		{IntList(1, 2, 3), KindList, "[1, 2, 3]"},
		{Invalid, KindInvalid, "<invalid>"},
	}
	for _, tc := range tests {
		if tc.v.Kind() != tc.kind {
			t.Errorf("%v kind = %v, want %v", tc.v, tc.v.Kind(), tc.kind)
		}
		if tc.v.String() != tc.str {
			t.Errorf("String() = %q, want %q", tc.v.String(), tc.str)
		}
	}

	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("AsBool round-trip failed")
	}
	if _, ok := Int(1).AsBool(); ok {
		t.Error("AsBool on int should fail")
	}
	if i, ok := Int(-7).AsInt(); !ok || i != -7 {
		t.Error("AsInt round-trip failed")
	}
	if f, ok := Float(1.5).AsFloat(); !ok || f != 1.5 {
		t.Error("AsFloat round-trip failed")
	}
	if f, ok := Int(3).AsFloat(); !ok || f != 3.0 {
		t.Error("AsFloat should widen int")
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Error("AsFloat on string should fail")
	}
	if s, ok := Str("abc").AsStr(); !ok || s != "abc" {
		t.Error("AsStr round-trip failed")
	}
	if tv := Time(now); tv.Kind() != KindTime || !tv.Equal(TimeNanos(now.UnixNano())) {
		t.Error("Time round-trip failed")
	}
	if l, ok := StrList("a", "b").AsList(); !ok || len(l) != 2 {
		t.Error("AsList round-trip failed")
	}
	if Invalid.IsValid() {
		t.Error("Invalid.IsValid() should be false")
	}
}

func TestListHomogeneityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("List with mixed kinds should panic")
		}
	}()
	List(KindInt, Int(1), Str("x"))
}

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Invalid.Equal(Invalid) {
		t.Error("Invalid never equals anything, including itself")
	}
	if !StrList("a").Equal(StrList("a")) {
		t.Error("equal lists should be Equal")
	}
	if StrList("a").Equal(StrList("a", "b")) {
		t.Error("different-length lists should differ")
	}
	if StrList("a").Equal(IntList(1)) {
		t.Error("lists of different element kinds should differ")
	}
	if Str("1").Equal(Int(1)) {
		t.Error("string should not equal int")
	}
	if !Bool(true).Equal(Bool(true)) || Bool(true).Equal(Bool(false)) {
		t.Error("bool equality broken")
	}
}

func TestValueCompare(t *testing.T) {
	lt := [][2]Value{
		{Int(1), Int(2)},
		{Int(1), Float(1.5)},
		{Float(-2), Int(0)},
		{Str("a"), Str("b")},
		{Bool(false), Bool(true)},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0))},
	}
	for _, p := range lt {
		if c, ok := p[0].Compare(p[1]); !ok || c != -1 {
			t.Errorf("Compare(%v, %v) = %d, %v; want -1, true", p[0], p[1], c, ok)
		}
		if c, ok := p[1].Compare(p[0]); !ok || c != 1 {
			t.Errorf("reverse Compare(%v, %v) = %d, %v; want 1, true", p[1], p[0], c, ok)
		}
	}
	if _, ok := Str("a").Compare(Int(1)); ok {
		t.Error("cross-kind compare should be not-ok")
	}
	if _, ok := IntList(1).Compare(IntList(1)); ok {
		t.Error("list compare should be not-ok")
	}
	if _, ok := Invalid.Compare(Int(1)); ok {
		t.Error("invalid compare should be not-ok")
	}
	if c, ok := Int(5).Compare(Int(5)); !ok || c != 0 {
		t.Error("self-compare should be 0")
	}
}

func TestHashEqualConsistency(t *testing.T) {
	// Equal values must hash equal — in particular int/float numeric equality.
	pairs := [][2]Value{
		{Int(42), Float(42.0)},
		{Str("x"), Str("x")},
		{IntList(1, 2), IntList(1, 2)},
		{Time(time.Unix(9, 9)), Time(time.Unix(9, 9))},
	}
	for _, p := range pairs {
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("Hash(%v) != Hash(%v) though Equal", p[0], p[1])
		}
	}
	if Str("a").Hash() == Str("b").Hash() {
		t.Error("distinct strings should (almost surely) hash differently")
	}
}

func TestHashEqualConsistencyQuick(t *testing.T) {
	f := func(i int64) bool {
		// Only int64 values exactly representable as float64 keep numeric
		// equality across the two kinds.
		if i != int64(float64(i)) {
			return true
		}
		a, b := Int(i), Float(float64(i))
		return !a.Equal(b) || a.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatSpecials(t *testing.T) {
	nan := Float(math.NaN())
	if nan.Equal(nan) {
		t.Error("NaN should not equal NaN")
	}
	inf := Float(math.Inf(1))
	if c, ok := Float(1e300).Compare(inf); !ok || c != -1 {
		t.Error("1e300 < +Inf expected")
	}
}

// ScrubCentral's window slabs are arrays of Value; the cell's size is what
// a buffered join column, a group key or a raw-row field costs.
func TestValueCellSize(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz > 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 40", sz)
	}
}

// The list payload lives behind a pointer; every operation that reaches
// it must behave as it did when the elements sat in the cell.
func TestListValueRoundTrips(t *testing.T) {
	cases := []struct {
		v    Value
		elem Kind
		str  string
		hash uint64 // FNV-1a of tag+payload, fixed by encoded HLL state
	}{
		{IntList(1, 2, 3), KindInt, "[1, 2, 3]", 0x3e6ebfdc30e4d4f1},
		{StrList("a", "bc"), KindString, "[a, bc]", 0xd5aa9515abd84c99},
		{List(KindFloat), KindFloat, "[]", 0xaf63bb4c8601b479},
		{FloatList(0.5, -2), KindFloat, "[0.5, -2]", 0},
	}
	for _, c := range cases {
		if c.v.Kind() != KindList || c.v.Elem() != c.elem {
			t.Errorf("%v: kind %v elem %v", c.v, c.v.Kind(), c.v.Elem())
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if c.hash != 0 && c.v.Hash() != c.hash {
			t.Errorf("%v: Hash() = %#x, want %#x", c.v, c.v.Hash(), c.hash)
		}
		enc := AppendValue(nil, c.v)
		if len(enc) != EncodedSize(&c.v) {
			t.Errorf("%v: EncodedSize %d, encoded %d bytes", c.v, EncodedSize(&c.v), len(enc))
		}
		dec, n, err := DecodeValue(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%v: decode: n=%d err=%v", c.v, n, err)
		}
		if !dec.Equal(c.v) || !c.v.Equal(dec) || dec.Hash() != c.v.Hash() || dec.Elem() != c.elem {
			t.Errorf("%v: decoded to %v", c.v, dec)
		}
		if _, ok := c.v.Compare(dec); ok {
			t.Errorf("%v: lists must stay incomparable", c.v)
		}
		vs, ok := dec.AsList()
		want, _ := c.v.AsList()
		if !ok || len(vs) != len(want) {
			t.Errorf("%v: AsList = %v, %v", c.v, vs, ok)
		}
	}
	if IntList(1, 2).Equal(IntList(1, 3)) || IntList(1).Equal(FloatList(1)) || IntList().Equal(Int(0)) {
		t.Error("unequal lists compared equal")
	}
	if _, ok := Int(1).AsList(); ok || Int(1).Elem() != KindInvalid {
		t.Error("scalar exposes a list payload")
	}
}

// Scalar hashes are pinned too: COUNT_DISTINCT partials carry HLL
// registers derived from them across the shard wire.
func TestHashGolden(t *testing.T) {
	cases := map[uint64]Value{
		0x21fdd47119083f4f: Int(42),
		0x797caf97b9371936: Float(2.5),
		0x89b9e3b7a5caf216: Str("héllo"),
		0x7194f3e59ae47dcd: Bool(true),
		0xdb38265e5fd023f3: TimeNanos(1234567890123),
		0xaf63bd4c8601b7df: Invalid,
	}
	for want, v := range cases {
		if got := v.Hash(); got != want {
			t.Errorf("%v: Hash() = %#x, want %#x", v, got, want)
		}
	}
	if Float(42).Hash() != Int(42).Hash() {
		t.Error("numerically equal int/float must hash equally")
	}
	if n := testing.AllocsPerRun(100, func() { _ = Str("user-17").Hash(); _ = Int(7).Hash() }); n != 0 {
		t.Errorf("Hash allocates %v times per run", n)
	}
}
