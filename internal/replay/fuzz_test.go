package replay

import (
	"math/rand"
	"testing"
	"time"

	"scrub/internal/event"
)

// sealedCorpus builds real sealed-chunk bytes for the fuzz seed corpus:
// the decoder's happy path plus systematic corruptions of it.
func sealedCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	cat := testCatalog()
	rng := rand.New(rand.NewSource(42))
	var out [][]byte
	for _, n := range []int{1, 25, 120} {
		s, err := Open(Options{Catalog: cat, ChunkBytes: 1 << 20, MaxAge: time.Hour})
		if err != nil {
			tb.Fatal(err)
		}
		ts := int64(500)
		for i := 0; i < n; i++ {
			ts += int64(rng.Intn(2000) + 1)
			s.Append(genTestEvent(rng, cat, ts))
		}
		seal(s)
		s.mu.Lock()
		data := append([]byte(nil), s.chunks[0].data...)
		s.mu.Unlock()
		s.Close()
		out = append(out, data)
	}
	return out
}

// FuzzDecodeChunk drives the chunk decoder — the surface that parses
// recovered disk bytes after a crash — with arbitrary input. It must
// never panic, and anything it accepts must be structurally sound
// enough to iterate and decode without error.
func FuzzDecodeChunk(f *testing.F) {
	for _, data := range sealedCorpus(f) {
		f.Add(data)
		// Truncations and bit flips of valid chunks steer the fuzzer at
		// the validation branches (the crash-recovery cases).
		f.Add(data[:len(data)/2])
		f.Add(data[:chunkHdrSize])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte(chunkMagic))

	cat := testCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, payload, err := DecodeChunk(data)
		if err != nil {
			return
		}
		// Accepted chunks must iterate and decode without panics. (Index
		// consistency with the decoded events is the property test's
		// contract — a fuzzer-built chunk can legally carry any index.)
		decoded := uint32(0)
		if err := DecodeRecords(payload, ix.Count, cat, func(*event.Event) bool {
			decoded++
			return true
		}); err != nil {
			// Structural corruption behind a colliding CRC: rejecting is
			// fine, panicking is not.
			return
		}
		_ = decoded
	})
}
