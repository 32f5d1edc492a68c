package event

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestValueEncodeRoundTrip(t *testing.T) {
	vals := []Value{
		Bool(true), Bool(false),
		Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(-2.75), Float(math.Inf(-1)),
		Str(""), Str("hello"), Str(string([]byte{0, 255, 128})),
		Time(time.Unix(123, 456)),
		IntList(), IntList(1, 2, 3), StrList("a", ""), FloatList(0.5),
		Invalid,
	}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		if len(buf) != EncodedSize(&v) {
			t.Errorf("EncodedSize(%v) = %d, encoded %d bytes", v, EncodedSize(&v), len(buf))
		}
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("DecodeValue(%v) consumed %d of %d", v, n, len(buf))
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

// genValue makes an arbitrary non-list Value from quick's random source.
func genValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Bool(r.Intn(2) == 1)
	case 1:
		return Int(int64(r.Uint64()))
	case 2:
		return Float(r.NormFloat64() * 1e6)
	case 3:
		n := r.Intn(20)
		b := make([]byte, n)
		r.Read(b)
		return Str(string(b))
	default:
		return TimeNanos(int64(r.Uint64() >> 1))
	}
}

type anyValue struct{ V Value }

func (anyValue) Generate(r *rand.Rand, size int) reflect.Value {
	v := genValue(r)
	if r.Intn(4) == 0 { // sometimes a homogeneous list
		elem := genValue(r)
		vs := make([]Value, r.Intn(5))
		for i := range vs {
			for {
				c := genValue(r)
				if c.Kind() == elem.Kind() {
					vs[i] = c
					break
				}
			}
		}
		v = List(elem.Kind(), vs...)
	}
	return reflect.ValueOf(anyValue{v})
}

func TestValueEncodeRoundTripQuick(t *testing.T) {
	f := func(av anyValue) bool {
		buf := AppendValue(nil, av.V)
		got, n, err := DecodeValue(buf)
		return err == nil && n == len(buf) && reflect.DeepEqual(got, av.V) && len(buf) == EncodedSize(&av.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeValueErrors(t *testing.T) {
	bad := [][]byte{
		{},                                    // empty
		{byte(KindBool)},                      // short bool
		{byte(KindInt), 1, 2},                 // short int
		{byte(KindString)},                    // missing length
		{byte(KindString), 5},                 // short string
		{byte(KindList)},                      // short header
		{byte(KindList), byte(KindInt)},       // missing count
		{byte(KindList), byte(KindInt), 2, 0}, // short elements
		{200},                                 // unknown tag
	}
	for _, b := range bad {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("DecodeValue(% x) should fail", b)
		}
	}
	// List element kind mismatch: int list containing a string element.
	b := []byte{byte(KindList), byte(KindInt), 1}
	b = AppendValue(b, Str("x"))
	if _, _, err := DecodeValue(b); err == nil {
		t.Error("list element kind mismatch should fail")
	}
}

func TestEventEncodeRoundTrip(t *testing.T) {
	s := bidSchema(t)
	cat := NewCatalog()
	cat.MustRegister(s)
	ev := NewBuilder(s).
		SetRequestID(42).
		SetTimeNanos(999).
		Int("exchange_id", 5).
		Str("city", "lisbon").
		Float("bid_price", 0.75).
		MustBuild()
	buf := AppendEvent(nil, ev)
	got, n, err := DecodeEvent(buf, cat)
	if err != nil {
		t.Fatalf("DecodeEvent: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if got.RequestID != 42 || got.TimeNanos != 999 || got.Schema != s {
		t.Errorf("header mismatch: %+v", got)
	}
	for i := range ev.Values {
		if !reflect.DeepEqual(got.Values[i], ev.Values[i]) {
			t.Errorf("field %d mismatch: %v vs %v", i, got.Values[i], ev.Values[i])
		}
	}
	// Unset field (country) survives as Invalid.
	if got.Get("country").IsValid() {
		t.Error("unset field should decode Invalid")
	}
}

func TestDecodeEventErrors(t *testing.T) {
	s := bidSchema(t)
	cat := NewCatalog()
	cat.MustRegister(s)
	ev := NewBuilder(s).Int("exchange_id", 1).SetTimeNanos(1).MustBuild()
	good := AppendEvent(nil, ev)

	// Unknown type.
	if _, _, err := DecodeEvent(AppendEvent(nil, &Event{
		Schema: MustSchema("ghost", FieldDef{Name: "x", Kind: KindInt}),
		Values: []Value{Int(1)}, TimeNanos: 1,
	}), cat); err == nil {
		t.Error("unknown type should fail")
	}
	// Truncations at every prefix length must error, not panic.
	for i := 0; i < len(good)-1; i++ {
		if _, _, err := DecodeEvent(good[:i], cat); err == nil {
			t.Errorf("truncated decode at %d should fail", i)
		}
	}
	// Field-count mismatch.
	other := MustSchema("bid2", FieldDef{Name: "only", Kind: KindInt})
	cat.MustRegister(other)
	wrong := AppendEvent(nil, &Event{Schema: other, Values: []Value{Int(1), Int(2)}, TimeNanos: 1})
	if _, _, err := DecodeEvent(wrong, cat); err == nil {
		t.Error("field count mismatch should fail")
	}
}

func BenchmarkAppendEvent(b *testing.B) {
	s := MustSchema("bid",
		FieldDef{Name: "exchange_id", Kind: KindInt},
		FieldDef{Name: "city", Kind: KindString},
		FieldDef{Name: "bid_price", Kind: KindFloat},
	)
	ev := NewBuilder(s).SetRequestID(1).SetTimeNanos(1).
		Int("exchange_id", 3).Str("city", "san jose").Float("bid_price", 1.5).MustBuild()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendEvent(buf[:0], ev)
	}
}

func BenchmarkDecodeEvent(b *testing.B) {
	s := MustSchema("bid",
		FieldDef{Name: "exchange_id", Kind: KindInt},
		FieldDef{Name: "city", Kind: KindString},
		FieldDef{Name: "bid_price", Kind: KindFloat},
	)
	cat := NewCatalog()
	cat.MustRegister(s)
	ev := NewBuilder(s).SetRequestID(1).SetTimeNanos(1).
		Int("exchange_id", 3).Str("city", "san jose").Float("bid_price", 1.5).MustBuild()
	buf := AppendEvent(nil, ev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeEvent(buf, cat); err != nil {
			b.Fatal(err)
		}
	}
}
