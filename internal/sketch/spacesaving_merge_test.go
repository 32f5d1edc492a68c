package sketch

import (
	"fmt"
	"math/rand"
	"testing"
)

// exactCounts tallies a stream exactly.
func exactCounts(stream []string) map[string]uint64 {
	m := make(map[string]uint64)
	for _, it := range stream {
		m[it]++
	}
	return m
}

// checkSound asserts the SpaceSaving guarantee for every tracked item:
// trueCount <= Count and Count − Err <= trueCount.
func checkSound(t *testing.T, s *SpaceSaving, exact map[string]uint64, ctx string) {
	t.Helper()
	for _, e := range s.Top(s.Len()) {
		truth := exact[e.Item]
		if e.Count < truth {
			t.Errorf("%s: item %q count %d underestimates true %d", ctx, e.Item, e.Count, truth)
		}
		if e.Count-e.Err > truth {
			t.Errorf("%s: item %q count−err %d exceeds true %d (count %d err %d)",
				ctx, e.Item, e.Count-e.Err, truth, e.Count, e.Err)
		}
	}
}

// zipfStream draws n items from a skewed distribution over universe
// items so merges see both heavy hitters and eviction churn.
func zipfStream(rng *rand.Rand, n, universe int) []string {
	z := rand.NewZipf(rng, 1.3, 1.0, uint64(universe-1))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("item-%03d", z.Uint64())
	}
	return out
}

// TestSpaceSavingMergeSound is the satellite property test: merged
// summaries must keep the paper's overestimate guarantee against exact
// counts — an item present in only one full summary inherits the other
// summary's minimum count as error, and count−err stays a lower bound.
func TestSpaceSavingMergeSound(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 8 + rng.Intn(24)
		parts := 2 + rng.Intn(6)
		var all []string
		summaries := make([]*SpaceSaving, parts)
		for p := 0; p < parts; p++ {
			stream := zipfStream(rng, 200+rng.Intn(800), 100)
			all = append(all, stream...)
			summaries[p] = MustSpaceSaving(capacity)
			for _, it := range stream {
				summaries[p].AddBytes([]byte(it))
			}
		}
		exact := exactCounts(all)
		merged := summaries[0]
		for _, o := range summaries[1:] {
			merged.Merge(o)
		}
		checkSound(t, merged, exact, fmt.Sprintf("seed %d", seed))
		if merged.Len() > capacity {
			t.Errorf("seed %d: merged len %d exceeds capacity %d", seed, merged.Len(), capacity)
		}
	}
}

// TestSpaceSavingMergeUniqueInheritsMin pins the exact bug the audit
// found: an item tracked only by one full summary must inherit the other
// full summary's minimum count, otherwise its merged count can
// underestimate its true total.
func TestSpaceSavingMergeUniqueInheritsMin(t *testing.T) {
	// s tracks a,b and is at capacity with min count 5. The true stream
	// behind s could have contained up to 5 occurrences of c (evicted).
	s := MustSpaceSaving(2)
	for i := 0; i < 7; i++ {
		s.AddBytes([]byte("a"))
	}
	for i := 0; i < 5; i++ {
		s.AddBytes([]byte("b"))
	}
	// o tracks c only (not at capacity: absence from o means true zero).
	o := MustSpaceSaving(2)
	for i := 0; i < 6; i++ {
		o.AddBytes([]byte("c"))
	}
	s.Merge(o)
	c, ok := s.Count("c")
	if !ok {
		t.Fatal("item c lost in merge")
	}
	// c's true count across both streams can be as high as 6 + 5 = 11
	// (the 5 from s's evictions); the merged estimate must cover that.
	if c < 11 {
		t.Errorf("merged count for c = %d; must be >= 11 (6 seen in o + s's min 5)", c)
	}
	// And a, b gain nothing from o, which is below capacity.
	if a, _ := s.Count("a"); a != 7 {
		t.Errorf("merged count for a = %d, want 7 (o below capacity inherits nothing)", a)
	}
}

// TestSpaceSavingMergeSymmetric checks merge(a,b) and merge(b,a) report
// the same Top list — required for deterministic cross-shard merges.
func TestSpaceSavingMergeSymmetric(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		capacity := 4 + rng.Intn(12)
		mk := func(stream []string) *SpaceSaving {
			s := MustSpaceSaving(capacity)
			for _, it := range stream {
				s.AddBytes([]byte(it))
			}
			return s
		}
		s1 := zipfStream(rng, 500, 60)
		s2 := zipfStream(rng, 500, 60)
		ab, ba := mk(s1), mk(s2)
		ab.Merge(mk(s2))
		ba.Merge(mk(s1))
		ta, tb := ab.Top(ab.Len()), ba.Top(ba.Len())
		if len(ta) != len(tb) {
			t.Fatalf("seed %d: asymmetric merge: %d vs %d items", seed, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Errorf("seed %d: entry %d differs: %+v vs %+v", seed, i, ta[i], tb[i])
			}
		}
	}
}

// TestSpaceSavingMergeThenAdd checks the rebuilt heap stays usable: adds
// after a merge must keep its order intact and the guarantee sound.
func TestSpaceSavingMergeThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := MustSpaceSaving(10)
	o := MustSpaceSaving(10)
	pre := zipfStream(rng, 400, 40)
	for _, it := range pre {
		s.AddBytes([]byte(it))
	}
	mid := zipfStream(rng, 400, 40)
	for _, it := range mid {
		o.AddBytes([]byte(it))
	}
	s.Merge(o)
	post := zipfStream(rng, 400, 40)
	for _, it := range post {
		s.AddBytes([]byte(it))
	}
	exact := exactCounts(append(append(append([]string(nil), pre...), mid...), post...))
	checkSound(t, s, exact, "merge-then-add")
}
