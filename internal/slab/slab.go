// Package slab provides the chunked, append-only stores ScrubCentral's
// window state is built from (DESIGN.md §17): Slab for fixed-size
// entries, Arena for packed bytes.
package slab

import (
	"math"
	"math/bits"
	"unsafe"
)

// Slab is an append-only sequence of T addressed by uint32 index and kept
// in chunks that are never reallocated: growing it copies nothing, so its
// owner allocates what it ends up holding (a flat slice grown by append
// allocates about five times that on the way), an index — and a pointer or
// slice into a chunk — stays valid while the slab grows, and the slack is
// At most one partly filled chunk. Chunks double from MinChunk to MaxChunk
// elements and stay at that size from then on, so an owner with a handful
// of entries pays for a handful. The zero Slab is empty and ready to use;
// it is not safe for concurrent use.
type Slab[T any] struct {
	chunks    [][]T
	free      []T // the unused rest of the newest chunk
	n         int // elements handed out, padding included
	allocated int // elements of capacity allocated
}

const (
	minShift = 4
	steps    = 6 // doubling chunks before the size settles
	MinChunk = 1 << minShift
	maxShift = minShift + steps
	MaxChunk = 1 << maxShift
	// settled is the first index held by a full-size chunk: the
	// doubling chunks hold MinChunk × (2^steps − 1) elements.
	settled = MaxChunk - MinChunk
)

// locate maps an index to its chunk and the offset within it.
func locate(i int) (chunk, off int) {
	if i >= settled {
		i -= settled
		return steps + i>>maxShift, i & (MaxChunk - 1)
	}
	chunk = bits.Len(uint(i>>minShift+1)) - 1
	return chunk, i - (MinChunk<<chunk - MinChunk)
}

// chunkCap is the capacity of chunk k.
func chunkCap(k int) int { return MinChunk << min(k, steps) }

// Alloc hands out a zeroed run of w consecutive elements that lies inside
// one chunk (so it can be used as a []T) and returns its index. When the
// current chunk's remainder is too short the run starts with the next
// chunk that can hold it; the skipped elements are padding. It fails when
// the run would not be addressable by a uint32, or is longer than a
// chunk.
func (s *Slab[T]) Alloc(w int) (uint32, []T, bool) {
	if w > len(s.free) || uint64(s.n)+uint64(w) > math.MaxUint32 {
		if !s.grow(w) {
			return 0, nil, false
		}
	}
	i, run := s.n, s.free[:w:w]
	s.free = s.free[w:]
	s.n += w
	return uint32(i), run, true
}

// grow makes room for a run of w elements: it skips what is left of the
// current chunk and starts the next chunk that can hold the run.
func (s *Slab[T]) grow(w int) bool {
	if w > MaxChunk {
		return false
	}
	k := len(s.chunks)
	n := s.n + len(s.free)
	for w > chunkCap(k) {
		n += chunkCap(k)
		k++
	}
	if uint64(n)+uint64(w) > math.MaxUint32 {
		return false
	}
	for len(s.chunks) < k {
		s.chunks = append(s.chunks, nil) // too small for the run: never allocated
	}
	s.free = make([]T, chunkCap(k))
	s.chunks = append(s.chunks, s.free)
	s.allocated += len(s.free)
	s.n = n
	return true
}

// Run returns the w-element run that Alloc handed out at index i.
func (s *Slab[T]) Run(i uint32, w int) []T {
	if w == 0 {
		return nil
	}
	k, off := locate(int(i))
	return s.chunks[k][off : off+w : off+w]
}

// Bytes is the capacity allocated so far, in bytes.
func (s *Slab[T]) Bytes() int64 {
	var zero T
	return int64(s.allocated) * int64(unsafe.Sizeof(zero))
}
