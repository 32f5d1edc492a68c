package stats

import (
	"math"
	"math/rand"
	"testing"

	"scrub/internal/wire"
)

// runningBytes encodes an accumulator through its description;
// runningFrom decodes one at the head of b, returning the bytes it took.
func runningBytes(r Running) []byte {
	var c wire.Coder
	r.Code(&c)
	return c.Buf
}

func runningFrom(b []byte) (Running, int, error) {
	c := wire.Coder{Mode: wire.Decoding, Buf: b}
	var r Running
	r.Code(&c)
	return r, c.Pos, c.Err
}

// TestRunningCodecRoundTrip checks bit-exact round-trips: a decoded
// accumulator must report and merge identically to the original.
func TestRunningCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var r Running
		for i := rng.Intn(100); i > 0; i-- {
			r.Add(rng.NormFloat64() * 1e3)
		}
		enc := runningBytes(r)
		d, n, err := runningFrom(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if n != len(enc) {
			t.Fatalf("trial %d: consumed %d of %d", trial, n, len(enc))
		}
		if d.N() != r.N() ||
			math.Float64bits(d.Mean()) != math.Float64bits(r.Mean()) ||
			math.Float64bits(d.m2) != math.Float64bits(r.m2) {
			t.Fatalf("trial %d: round-trip mismatch: %+v vs %+v", trial, d, r)
		}
		var o Running
		for i := 0; i < 10; i++ {
			o.Add(rng.NormFloat64())
		}
		r.Merge(o)
		d.Merge(o)
		if math.Float64bits(d.Var()) != math.Float64bits(r.Var()) {
			t.Fatalf("trial %d: post-merge variance diverged", trial)
		}
	}
}

func TestRunningDecodeErrors(t *testing.T) {
	var r Running
	r.Add(1.5)
	enc := runningBytes(r)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := runningFrom(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	// A count that does not fit an int would read as a negative N.
	if _, _, err := runningFrom(append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, enc[1:]...)); err == nil {
		t.Fatal("a count of 2^63 decoded")
	}
}
