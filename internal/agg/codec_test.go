package agg

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"scrub/internal/event"
)

func randValue(rng *rand.Rand) event.Value {
	switch rng.Intn(4) {
	case 0:
		return event.Int(int64(rng.Intn(1000) - 500))
	case 1:
		return event.Float(rng.NormFloat64() * 100)
	case 2:
		return event.Str(fmt.Sprintf("s%d", rng.Intn(50)))
	default:
		return event.Invalid
	}
}

// sameResult treats two Invalid results (SQL NULL) as matching; Equal
// deliberately does not.
func sameResult(a, b event.Value) bool {
	if !a.IsValid() && !b.IsValid() {
		return true
	}
	return a.Equal(b)
}

// TestStateCodecRoundTrip drives every aggregate kind through random
// inputs, round-trips its state, and checks the decoded copy renders the
// same result and keeps merging identically afterwards.
func TestStateCodecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Kind: KindCountStar},
		{Kind: KindCount},
		{Kind: KindSum},
		{Kind: KindAvg},
		{Kind: KindMin},
		{Kind: KindMax},
		{Kind: KindTopK, K: 3},
		{Kind: KindCountDistinct},
		{Kind: KindCountDistinct, Prec: 6},
	}
	rng := rand.New(rand.NewSource(11))
	for _, spec := range specs {
		for trial := 0; trial < 10; trial++ {
			a := MustNew(spec)
			for i := rng.Intn(200); i > 0; i-- {
				a.Add(randValue(rng), 1)
			}
			enc, err := appendState(nil, a)
			if err != nil {
				t.Fatalf("%v: encode: %v", spec.Kind, err)
			}
			d, n, err := decodeState(spec, enc)
			if err != nil {
				t.Fatalf("%v: decode: %v", spec.Kind, err)
			}
			if n != len(enc) {
				t.Fatalf("%v: consumed %d of %d bytes", spec.Kind, n, len(enc))
			}
			if inputs(d) != inputs(a) {
				t.Fatalf("%v: count %d vs %d", spec.Kind, inputs(d), inputs(a))
			}
			if !sameResult(d.Result(), a.Result()) {
				t.Fatalf("%v: result %v vs %v", spec.Kind, d.Result(), a.Result())
			}
			// The decoded copy must keep evolving identically: fold the
			// same partial into both, then the same direct additions.
			o := MustNew(spec)
			for i := 0; i < 50; i++ {
				o.Add(randValue(rng), 1)
			}
			if err := a.Merge(o); err != nil {
				t.Fatalf("%v: merge into original: %v", spec.Kind, err)
			}
			if err := d.Merge(o); err != nil {
				t.Fatalf("%v: merge into decoded: %v", spec.Kind, err)
			}
			for i := 0; i < 20; i++ {
				v := randValue(rng)
				a.Add(v, 1)
				d.Add(v, 1)
			}
			if inputs(d) != inputs(a) || !sameResult(d.Result(), a.Result()) {
				t.Fatalf("%v: post-merge divergence: (%d,%v) vs (%d,%v)",
					spec.Kind, inputs(d), d.Result(), inputs(a), a.Result())
			}
		}
	}
}

func TestStateCodecEmpty(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindCountStar}, {Kind: KindSum}, {Kind: KindAvg},
		{Kind: KindMin}, {Kind: KindMax}, {Kind: KindTopK, K: 2},
		{Kind: KindCountDistinct},
	} {
		a := MustNew(spec)
		enc, err := appendState(nil, a)
		if err != nil {
			t.Fatalf("%v: encode empty: %v", spec.Kind, err)
		}
		d, n, err := decodeState(spec, enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%v: decode empty: n=%d err=%v", spec.Kind, n, err)
		}
		if inputs(d) != 0 || !sameResult(d.Result(), a.Result()) {
			t.Fatalf("%v: empty round-trip mismatch", spec.Kind)
		}
	}
}

func TestStateCodecTruncation(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindSum}, {Kind: KindAvg}, {Kind: KindMin},
		{Kind: KindTopK, K: 2}, {Kind: KindCountDistinct, Prec: 6},
	} {
		a := MustNew(spec)
		a.Add(event.Int(5), 1)
		a.Add(event.Int(9), 1)
		enc, err := appendState(nil, a)
		if err != nil {
			t.Fatalf("%v: encode: %v", spec.Kind, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := decodeState(spec, enc[:cut]); err == nil {
				t.Fatalf("%v: truncation at %d decoded without error", spec.Kind, cut)
			}
		}
	}
}

// TestStateCodecContinuationExact: a state's encoding is all of the
// state, not merely enough to render it — for every kind, Add(xs);
// decode(encode); Add(ys) must leave byte for byte the state Add(xs);
// Add(ys) leaves, wherever the stream is cut and however often. No engine
// path folds into a decoded state (only a closed window is encoded); this
// is a property of the codec, and the strongest form of the losslessness a
// merge of decoded partials relies on. The value streams are shaped to reach each kind's state:
// ints turning into floats under SUM, strings under MIN/MAX, and for
// TOP_K more distinct items than the summary has counters, drawn from a
// narrow range so that many counters tie at the minimum count when an
// eviction has to pick its victim.
func TestStateCodecContinuationExact(t *testing.T) {
	ints := func(rng *rand.Rand) event.Value { return event.Int(int64(rng.Intn(2000) - 1000)) }
	floats := func(rng *rand.Rand) event.Value { return event.Float(rng.NormFloat64() * 1e3) }
	strs := func(rng *rand.Rand) event.Value { return event.Str(fmt.Sprintf("s%03d", rng.Intn(300))) }
	cases := []struct {
		name string
		spec Spec
		gen  func(*rand.Rand) event.Value
	}{
		{"count(*)", Spec{Kind: KindCountStar}, randValue},
		{"count", Spec{Kind: KindCount}, randValue},
		{"sum-int", Spec{Kind: KindSum}, ints},
		{"sum-float", Spec{Kind: KindSum}, floats},
		{"sum-mixed", Spec{Kind: KindSum}, randValue},
		{"avg", Spec{Kind: KindAvg}, floats},
		{"min-float", Spec{Kind: KindMin}, floats},
		{"max-int", Spec{Kind: KindMax}, ints},
		{"min-string", Spec{Kind: KindMin}, strs},
		{"max-string", Spec{Kind: KindMax}, strs},
		{"max-mixed", Spec{Kind: KindMax}, randValue},
		{"top_k-tied", Spec{Kind: KindTopK, K: 3}, strs}, // 64 counters, 300 items
		{"top_k-mixed", Spec{Kind: KindTopK, K: 10}, randValue},
		{"count_distinct", Spec{Kind: KindCountDistinct}, ints},
		{"count_distinct-p6", Spec{Kind: KindCountDistinct, Prec: 6}, strs},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				straight, resumed := MustNew(c.spec), MustNew(c.spec)
				for cut := 0; cut < 4; cut++ {
					for i := rng.Intn(400); i > 0; i-- {
						v := c.gen(rng)
						straight.Add(v, 1)
						resumed.Add(v, 1)
					}
					enc, err := appendState(nil, resumed)
					if err != nil {
						t.Fatal(err)
					}
					if resumed, _, err = decodeState(c.spec, enc); err != nil {
						t.Fatal(err)
					}
				}
				want, _ := appendState(nil, straight)
				got, _ := appendState(nil, resumed)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: state after four encode/decode cuts differs from the uninterrupted one:\n got %x\nwant %x", seed, got, want)
				}
				if !sameResult(resumed.Result(), straight.Result()) {
					t.Fatalf("seed %d: result %v, uninterrupted %v", seed, resumed.Result(), straight.Result())
				}
			}
		})
	}
}
