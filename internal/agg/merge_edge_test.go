package agg

import (
	"math"
	"testing"

	"scrub/internal/event"
)

// Satellite: shard merges routinely fold *empty* partials (a shard that
// saw no tuples for a group) and occasionally NaN-bearing readings into
// populated aggregators. An empty partial must be a strict no-op — it
// must not poison AVG with 0-count weighting or MIN/MAX with zero-value
// extremes — and merge must equal feeding one aggregator the combined
// stream.

func feed(t *testing.T, s Spec, vals ...event.Value) Aggregator {
	t.Helper()
	a := MustNew(s)
	for _, v := range vals {
		a.Add(v, 1)
	}
	return a
}

func mustMerge(t *testing.T, dst, src Aggregator) {
	t.Helper()
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEdgeCases(t *testing.T) {
	f := event.Float
	i := event.Int
	nan := event.Float(math.NaN())
	cases := []struct {
		name  string
		spec  Spec
		left  []event.Value
		right []event.Value
		want  event.Value // expected merged Result
		wantN uint64
	}{
		// Empty partials are no-ops in either direction.
		{"avg empty into populated", Spec{Kind: KindAvg}, []event.Value{f(2), f(4)}, nil, f(3), 2},
		{"avg populated into empty", Spec{Kind: KindAvg}, nil, []event.Value{f(2), f(4)}, f(3), 2},
		{"avg empty into empty", Spec{Kind: KindAvg}, nil, nil, event.Invalid, 0},
		{"min empty into populated", Spec{Kind: KindMin}, []event.Value{i(5), i(9)}, nil, i(5), 2},
		{"min populated into empty", Spec{Kind: KindMin}, nil, []event.Value{i(5), i(9)}, i(5), 2},
		{"max empty into populated", Spec{Kind: KindMax}, []event.Value{i(-7), i(-3)}, nil, i(-3), 2},
		{"max populated into empty", Spec{Kind: KindMax}, nil, []event.Value{i(-7), i(-3)}, i(-3), 2},
		{"max negative both sides", Spec{Kind: KindMax}, []event.Value{i(-7)}, []event.Value{i(-3)}, i(-3), 2},
		{"min empty into empty", Spec{Kind: KindMin}, nil, nil, event.Invalid, 0},
		{"sum empty into populated", Spec{Kind: KindSum}, []event.Value{i(1), i(2)}, nil, i(3), 2},
		{"sum empty into empty", Spec{Kind: KindSum}, nil, nil, event.Invalid, 0},
		{"count empty into populated", Spec{Kind: KindCount}, []event.Value{i(1)}, nil, i(1), 1},
		{"count(*) empty into empty", Spec{Kind: KindCountStar}, nil, nil, i(0), 0},

		// Singletons: the smallest populated partials.
		{"avg singleton each side", Spec{Kind: KindAvg}, []event.Value{f(1)}, []event.Value{f(3)}, f(2), 2},
		{"min singleton each side", Spec{Kind: KindMin}, []event.Value{i(4)}, []event.Value{i(2)}, i(2), 2},

		// Invalid (NULL) inputs are filtered at Add, so partials that saw
		// only NULLs behave exactly like empty ones.
		{"avg null-only partial", Spec{Kind: KindAvg}, []event.Value{f(6)}, []event.Value{event.Invalid}, f(6), 1},
		{"min null-only partial", Spec{Kind: KindMin}, []event.Value{i(6)}, []event.Value{event.Invalid}, i(6), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := feed(t, tc.spec, tc.left...)
			src := feed(t, tc.spec, tc.right...)
			mustMerge(t, dst, src)
			got := dst.Result()
			if !resultsEqual(got, tc.want) {
				t.Errorf("merged result = %v, want %v", got, tc.want)
			}
			if inputs(dst) != tc.wantN {
				t.Errorf("merged count = %d, want %d", inputs(dst), tc.wantN)
			}

			// Merge must equal one aggregator fed the combined stream.
			seq := feed(t, tc.spec, append(append([]event.Value(nil), tc.left...), tc.right...)...)
			if sg := seq.Result(); !resultsEqual(got, sg) {
				t.Errorf("merge/sequential mismatch: merged %v, sequential %v", got, sg)
			}
		})
	}

	// NaN semantics are pinned (not judged): event.Value.Compare treats
	// NaN as equal to every number, so MIN/MAX keep whichever extreme was
	// installed first and NaN never displaces a real value; AVG and SUM
	// propagate NaN like IEEE addition. Merge must mirror sequential
	// feeding in all of these.
	t.Run("nan pinned semantics", func(t *testing.T) {
		minA := feed(t, Spec{Kind: KindMin}, f(3))
		minB := feed(t, Spec{Kind: KindMin}, nan)
		mustMerge(t, minA, minB)
		if got := minA.Result(); !resultsEqual(got, f(3)) {
			t.Errorf("min(3)⊕min(NaN) = %v, want 3 (NaN never displaces)", got)
		}

		avgA := feed(t, Spec{Kind: KindAvg}, f(1), f(2))
		avgB := feed(t, Spec{Kind: KindAvg}, nan)
		mustMerge(t, avgA, avgB)
		gf, ok := avgA.Result().AsFloat()
		if !ok || !math.IsNaN(gf) {
			t.Errorf("avg with NaN partial = %v, want NaN", avgA.Result())
		}
		seq := feed(t, Spec{Kind: KindAvg}, f(1), f(2), nan)
		sf, _ := seq.Result().AsFloat()
		if math.IsNaN(gf) != math.IsNaN(sf) {
			t.Errorf("avg merge/sequential NaN mismatch: %v vs %v", gf, sf)
		}

		sumA := feed(t, Spec{Kind: KindSum}, f(1))
		sumB := feed(t, Spec{Kind: KindSum}, nan)
		mustMerge(t, sumA, sumB)
		if gf, _ := sumA.Result().AsFloat(); !math.IsNaN(gf) {
			t.Errorf("sum with NaN partial = %v, want NaN", sumA.Result())
		}
	})
}

// resultsEqual compares two aggregate results exactly, treating Invalid
// as equal to Invalid.
func resultsEqual(a, b event.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if af, aok := a.AsFloat(); aok {
		bf, bok := b.AsFloat()
		if !bok {
			return false
		}
		if math.IsNaN(af) && math.IsNaN(bf) {
			return true
		}
		return af == bf
	}
	c, ok := a.Compare(b)
	return ok && c == 0
}
