// Package slab provides the chunked, append-only stores ScrubCentral's
// window state is built from (DESIGN.md §17): Slab for fixed-size
// entries, Arena for packed bytes, and Index, a hash index threaded
// through an Arena's runs.
package slab

import (
	"math"
	"math/bits"
	"unsafe"
)

// Slab is an append-only sequence of T addressed by uint32 index and kept
// in chunks that are never reallocated: growing it copies nothing, so its
// owner allocates what it ends up holding (a flat slice grown by append
// allocates about five times that on the way), an index — and a pointer
// into a chunk — stays valid while the slab grows, and the slack is at
// most one partly filled chunk. Chunks double from MinChunk to MaxChunk
// elements (16 to 256) and stay at that size from then on, so an owner
// with a handful of entries pays for a handful, and one with many grows
// by at most 256 elements at a time: 4 KiB of an average's 16-byte
// states, 1 KiB of an index's heads. Elements are handed out one at a time
// and no index is ever skipped: the i-th element appended is element i.
// The zero Slab is empty and ready to use; it is not safe for concurrent
// use.
type Slab[T any] struct {
	chunks [][]T
	free   []T // the unused rest of the newest chunk
	n      int // elements handed out
}

const (
	minShift = 4
	steps    = 4 // doubling chunks before the size settles
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

// Append hands out the next element, zeroed. The owner keeps the slab
// below 2^32 elements — an index is a uint32 — and one that does not is
// stopped here rather than wrapped.
func (s *Slab[T]) Append() *T {
	if len(s.free) == 0 {
		if s.n >= math.MaxUint32 {
			panic("slab: out of uint32 indexes")
		}
		s.free = make([]T, chunkCap(len(s.chunks)))
		s.chunks = append(s.chunks, s.free)
	}
	e := &s.free[0]
	s.free = s.free[1:]
	s.n++
	return e
}

// At returns element i, which Append has handed out.
func (s *Slab[T]) At(i uint32) *T {
	k, off := locate(int(i))
	return &s.chunks[k][off]
}

// Len is the number of elements handed out.
func (s *Slab[T]) Len() int { return s.n }

// Bytes is the capacity allocated so far, in bytes.
func (s *Slab[T]) Bytes() int64 {
	var zero T
	return int64(s.n+len(s.free)) * int64(unsafe.Sizeof(zero))
}
