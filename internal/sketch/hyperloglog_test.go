package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestNewHLLValidation(t *testing.T) {
	if _, err := NewHLL(3); err == nil {
		t.Error("precision 3 should fail")
	}
	if _, err := NewHLL(19); err == nil {
		t.Error("precision 19 should fail")
	}
	h, err := NewHLL(DefaultHLLPrecision)
	if err != nil || h.precision != DefaultHLLPrecision {
		t.Fatalf("NewHLL default: %v", err)
	}
}

func TestMustHLLPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHLL(0) should panic")
		}
	}()
	MustHLL(0)
}

func TestHLLEmpty(t *testing.T) {
	h := MustHLL(10)
	if est := h.Estimate(); est != 0 {
		t.Errorf("empty estimate = %d, want 0", est)
	}
}

func TestHLLAccuracySweep(t *testing.T) {
	// For each cardinality, the estimate must fall within 5 standard
	// errors (generous: avoids flakiness while still catching real bugs).
	h := MustHLL(14)
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{10, 100, 1000, 10000, 100000, 1000000} {
		h.Reset()
		seen := make(map[uint64]bool, n)
		for len(seen) < n {
			x := rng.Uint64()
			if !seen[x] {
				seen[x] = true
				h.AddHash(x)
			}
		}
		est := float64(h.Estimate())
		rel := math.Abs(est-float64(n)) / float64(n)
		if rel > 5*stdError(h) {
			t.Errorf("n=%d: estimate %v, relative error %.4f > %.4f", n, est, rel, 5*stdError(h))
		}
	}
}

func TestHLLDuplicatesDoNotInflate(t *testing.T) {
	h := MustHLL(12)
	for i := 0; i < 100; i++ {
		for j := 0; j < 1000; j++ {
			h.AddHash(uint64(i))
		}
	}
	est := h.Estimate()
	if est < 80 || est > 120 {
		t.Errorf("100 distinct items added 1000x each: estimate %d", est)
	}
}

func TestHLLAddBytes(t *testing.T) {
	h := MustHLL(12)
	for i := 0; i < 5000; i++ {
		h.AddHash(fnv64([]byte(fmt.Sprintf("user-%d", i))))
	}
	est := float64(h.Estimate())
	if math.Abs(est-5000)/5000 > 5*stdError(h) {
		t.Errorf("byte-string estimate %v for 5000 distinct", est)
	}
}

func TestHLLMerge(t *testing.T) {
	a, b := MustHLL(12), MustHLL(12)
	for i := 0; i < 10000; i++ {
		a.AddHash(uint64(i))
	}
	for i := 5000; i < 15000; i++ {
		b.AddHash(uint64(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	est := float64(a.Estimate())
	if math.Abs(est-15000)/15000 > 5*stdError(a) {
		t.Errorf("merged estimate %v, want ~15000", est)
	}
	// Merge is an upper bound union: merging b again changes nothing.
	before := a.Estimate()
	if err := a.Merge(b); err != nil || a.Estimate() != before {
		t.Error("idempotent re-merge changed the estimate")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("Merge(nil): %v", err)
	}
	c := MustHLL(10)
	if err := a.Merge(c); err == nil {
		t.Error("precision mismatch merge should fail")
	}
}

func TestHLLMergeEqualsUnion(t *testing.T) {
	// merge(A,B) must equal the sketch of the concatenated stream.
	a, b, u := MustHLL(12), MustHLL(12), MustHLL(12)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		x := rng.Uint64()
		if i%2 == 0 {
			a.AddHash(x)
		} else {
			b.AddHash(x)
		}
		u.AddHash(x)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != u.Estimate() {
		t.Errorf("merge estimate %d != union estimate %d", a.Estimate(), u.Estimate())
	}
}

func TestHLLSerializeRoundTrip(t *testing.T) {
	h := MustHLL(11)
	for i := 0; i < 12345; i++ {
		h.AddHash(uint64(i))
	}
	buf := hllBytes(h)
	got, n, err := hllFrom(buf, 11)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if got.Estimate() != h.Estimate() {
		t.Errorf("round-trip estimate %d != %d", got.Estimate(), h.Estimate())
	}
}

func TestDecodeHLLErrors(t *testing.T) {
	if _, _, err := hllFrom(nil, 10); err == nil {
		t.Error("empty decode should fail")
	}
	if _, _, err := hllFrom([]byte{99}, 10); err == nil {
		t.Error("bad precision should fail")
	}
	if _, _, err := hllFrom([]byte{10, 1, 2}, 10); err == nil {
		t.Error("short registers should fail")
	}
	if _, _, err := hllFrom(hllBytes(MustHLL(11)), 10); err == nil {
		t.Error("a precision-11 estimator decoded into a precision-10 one")
	}
}

func TestHLLReset(t *testing.T) {
	h := MustHLL(10)
	for i := 0; i < 1000; i++ {
		h.AddHash(uint64(i))
	}
	h.Reset()
	if h.Estimate() != 0 {
		t.Errorf("after Reset estimate = %d", h.Estimate())
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h := MustHLL(14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.AddHash(uint64(i))
	}
}

func BenchmarkHLLEstimate(b *testing.B) {
	h := MustHLL(14)
	for i := 0; i < 100000; i++ {
		h.AddHash(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Estimate()
	}
}
