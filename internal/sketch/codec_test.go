package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"scrub/internal/wire"
)

// ssBytes and hllBytes encode a sketch through its description; ssFrom
// and hllFrom decode one of the given shape at the head of b, returning
// the bytes it took.
func ssBytes(s *SpaceSaving) []byte {
	var c wire.Coder
	CodeSpaceSaving(&c, s)
	return c.Buf
}

func ssFrom(b []byte, capacity int) (*SpaceSaving, int, error) {
	c := wire.Coder{Mode: wire.Decoding, Buf: b}
	s := MustSpaceSaving(capacity)
	CodeSpaceSaving(&c, s)
	return s, c.Pos, c.Err
}

func hllBytes(h *HLL) []byte {
	var c wire.Coder
	CodeHLL(&c, h)
	return c.Buf
}

func hllFrom(b []byte, precision uint8) (*HLL, int, error) {
	c := wire.Coder{Mode: wire.Decoding, Buf: b}
	h := MustHLL(precision)
	CodeHLL(&c, h)
	return h, c.Pos, c.Err
}

// TestSpaceSavingCodecRoundTrip checks that a decoded summary reports the
// exact entries of the original and keeps behaving identically under
// further additions and merges (the coordinator's partial-shipping path).
func TestSpaceSavingCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		capacity := 1 + rng.Intn(40)
		s := MustSpaceSaving(capacity)
		adds := rng.Intn(500)
		for i := 0; i < adds; i++ {
			s.add([]byte(fmt.Sprintf("item-%d", rng.Intn(80))), uint64(1+rng.Intn(5)))
		}
		enc := ssBytes(s)
		d, n, err := ssFrom(enc, capacity)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if n != len(enc) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, n, len(enc))
		}
		if d.capacity != s.capacity || d.Len() != s.Len() {
			t.Fatalf("trial %d: capacity/len mismatch: %d/%d vs %d/%d",
				trial, d.capacity, d.Len(), s.capacity, s.Len())
		}
		wantTop, gotTop := s.Top(s.Len()), d.Top(d.Len())
		for i := range wantTop {
			if wantTop[i] != gotTop[i] {
				t.Fatalf("trial %d: entry %d: %+v vs %+v", trial, i, gotTop[i], wantTop[i])
			}
		}
		// Behavioral equivalence: the same subsequent workload must leave
		// both summaries with identical contents.
		other := MustSpaceSaving(capacity)
		for i := 0; i < 100; i++ {
			other.add([]byte(fmt.Sprintf("other-%d", rng.Intn(30))), uint64(1+rng.Intn(3)))
		}
		for i := 0; i < 200; i++ {
			item := fmt.Sprintf("item-%d", rng.Intn(100))
			s.AddBytes([]byte(item))
			d.AddBytes([]byte(item))
		}
		s.Merge(other)
		d.Merge(other)
		wantTop, gotTop = s.Top(s.Len()), d.Top(d.Len())
		if len(wantTop) != len(gotTop) {
			t.Fatalf("trial %d: post-workload len %d vs %d", trial, len(gotTop), len(wantTop))
		}
		for i := range wantTop {
			if wantTop[i] != gotTop[i] {
				t.Fatalf("trial %d: post-workload entry %d: %+v vs %+v", trial, i, gotTop[i], wantTop[i])
			}
		}
	}
}

func TestSpaceSavingCodecEmpty(t *testing.T) {
	s := MustSpaceSaving(8)
	enc := ssBytes(s)
	d, n, err := ssFrom(enc, 8)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if n != len(enc) || d.Len() != 0 || d.capacity != 8 {
		t.Fatalf("empty round-trip: n=%d len=%d cap=%d", n, d.Len(), d.capacity)
	}
	d.AddBytes([]byte("x"))
	if c, ok := d.Count("x"); !ok || c != 1 {
		t.Fatalf("decoded empty summary unusable: count=%d ok=%v", c, ok)
	}
}

func TestSpaceSavingDecodeErrors(t *testing.T) {
	s := MustSpaceSaving(4)
	s.AddBytes([]byte("a"))
	enc := ssBytes(s)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := ssFrom(enc[:cut], 4); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, _, err := ssFrom(enc, 5); err == nil {
		t.Fatal("a capacity-4 summary decoded into a capacity-5 one")
	}
}

// TestCodecContinuationExact cuts a stream at random points, replaces the
// sketch by decode(encode(sketch)) at every cut, and requires the final
// encoding to equal the uninterrupted sketch's byte for byte. For
// SpaceSaving the summary is small against the alphabet and every
// addition is 1, so it sits at capacity with several counters tied at the
// minimum count whenever an eviction picks its victim — the one place a
// rebuilt heap could behave differently from the original. No
// engine path folds into a decoded sketch; this is a property of the
// codec: the encoding is the whole summary.
func TestCodecContinuationExact(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 2 + rng.Intn(8)
		ss, ssCut := MustSpaceSaving(capacity), MustSpaceSaving(capacity)
		hll, hllCut := MustHLL(DefaultHLLPrecision), MustHLL(DefaultHLLPrecision)
		evictions := 0
		for i := 0; i < 600; i++ {
			item := fmt.Sprintf("i%02d", rng.Intn(3*capacity))
			if _, tracked := ss.Count(item); !tracked && ss.Len() == capacity {
				evictions++
			}
			ss.AddBytes([]byte(item))
			ssCut.AddBytes([]byte(item))
			x := rng.Uint64()
			hll.AddHash(x)
			hllCut.AddHash(x)
			if rng.Intn(40) == 0 {
				var err error
				if ssCut, _, err = ssFrom(ssBytes(ssCut), capacity); err != nil {
					t.Fatal(err)
				}
				if hllCut, _, err = hllFrom(hllBytes(hllCut), DefaultHLLPrecision); err != nil {
					t.Fatal(err)
				}
			}
		}
		if evictions == 0 {
			t.Fatalf("seed %d: the stream never evicted a counter", seed)
		}
		if got, want := ssBytes(ssCut), ssBytes(ss); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: SpaceSaving(%d) diverged after %d evictions:\n got %x\nwant %x", seed, capacity, evictions, got, want)
		}
		if got, want := hllBytes(hllCut), hllBytes(hll); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: HLL registers diverged", seed)
		}
	}
}
