package sketch

import (
	"hash/maphash"
	"math"
)

// Readers the tests need over a summary's state, built on the production
// EachTop and find.

// Entry is one reported heavy hitter. Count overestimates the true count by
// at most Err.
type Entry struct {
	Item  string
	Count uint64
	Err   uint64
}

// Top returns the k highest-count entries, in EachTop's order.
func (s *SpaceSaving) Top(k int) []Entry {
	out := make([]Entry, 0, max(0, min(k, len(s.ctr))))
	s.EachTop(k, func(item []byte, count, errVal uint64) {
		out = append(out, Entry{Item: string(item), Count: count, Err: errVal})
	})
	return out
}

// Count returns the (over)estimate for an item and whether it is tracked.
func (s *SpaceSaving) Count(item string) (uint64, bool) {
	ci := s.find(maphash.String(hashSeed, item), []byte(item))
	if ci == none {
		return 0, false
	}
	return s.ctr[ci].count, true
}

// TotalCount returns the sum of all tracked counts (≥ the number of
// additions routed to tracked items).
func (s *SpaceSaving) TotalCount() uint64 {
	var t uint64
	for i := range s.ctr {
		t += s.ctr[i].count
	}
	return t
}

// stdError is the theoretical relative standard error of h's precision.
func stdError(h *HLL) float64 { return 1.04 / math.Sqrt(float64(len(h.registers))) }

// fnv64 is FNV-1a 64 over b: a weakly avalanched hash of short,
// near-sequential keys, which AddHash must re-mix.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
