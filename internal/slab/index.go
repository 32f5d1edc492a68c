package slab

import (
	"encoding/binary"
	"math/bits"
)

// Index is a hash index over runs of an Arena that keeps no entry of its
// own: bucket heads, each a link to the newest run of its bucket, with the
// collision chain continuing through the runs themselves. A link is a
// run's address plus one; 0 ends a chain (address 0 is a real run, the
// arena's first). The index reads and writes only its heads: the owner
// lays out its runs, decides which of them hold a link to the run threaded
// before them in the same bucket, and writes that link — Insert returns
// it. The runs' keys and hashes are the owner's business too: the owner
// hashes, walks a chain from Head and compares keys in place.
//
// The heads grow by linear hashing (Litwin, VLDB 1980), one bucket at a
// time: they live in a Slab, so they are never copied and never exceed a
// head per run by more than a chunk, and growing the index by a bucket
// re-threads one chain, not the whole index. Bucket b of a round of lo
// buckets is split into b and b + lo; a round ends when all lo are split
// and the next has twice as many. A split never merges two chains and
// keeps the order of the one it divides, so an owner may leave the link
// out of a run that finds its bucket empty (Head is 0): no run threaded
// before it ever shares its bucket, and it stays the last of its chain.
// Several indexes may thread disjoint sets of runs of one arena. The link
// words are the one part of an arena that is rewritten — when a split
// threads a chain again — and no slice or String an owner keeps covers
// one. The zero Index is empty (and Full); it is not safe for concurrent
// use.
type Index struct {
	heads Slab[uint32]
	lo    uint64 // the round's buckets, a power of two ≤ the heads; 0 while there are none
	n     int    // runs threaded
}

const (
	// LinkSize is how many bytes a link takes in a run.
	LinkSize = 4
	// indexMinBuckets is the size of the first round.
	indexMinBuckets = 16
)

// Bucket is the bucket a run of hash is threaded in: hash's low bits
// below 2·lo, or below lo when that bucket is not split off yet. The index
// must have buckets. The choice is arithmetic, not a branch: which way it
// goes follows the hash, so a branch would be mispredicted about as often
// as not.
func (ix *Index) Bucket(hash uint64) uint32 {
	b := hash & (2*ix.lo - 1)
	unsplit := (uint64(ix.heads.Len()) - 1 - b) >> 63 // 1 when b ≥ the heads
	return uint32(b - ix.lo&-unsplit)
}

// Head returns the link to the newest run in hash's bucket, 0 when the
// bucket is empty.
func (ix *Index) Head(hash uint64) uint32 {
	if ix.lo == 0 {
		return 0
	}
	return *ix.heads.At(ix.Bucket(hash))
}

// Len is the number of runs threaded.
func (ix *Index) Len() int { return ix.n }

// Bytes is the capacity of the heads in bytes.
func (ix *Index) Bytes() int64 { return ix.heads.Bytes() }

// Full reports that the index holds a run per bucket: before the next
// Insert its owner must Split a bucket, so chains stay about one run long.
func (ix *Index) Full() bool { return ix.n >= ix.heads.Len() }

// Split adds a bucket, the one the round's next bucket splits into, and
// empties that next bucket: it returns the link to the newest run of its
// chain, 0 when it had none. The owner walks that chain and Reinserts its
// runs oldest first, writing each linked run's link as Reinsert returns
// it: each lands in whichever of the two buckets its hash now picks, and
// both chains run newest first again. The first Split of an empty index
// makes its first round of buckets.
func (ix *Index) Split() (head uint32) {
	if ix.lo == 0 {
		ix.Grow(0)
		return 0
	}
	n := uint64(ix.heads.Len())
	ix.heads.Append()
	old := ix.heads.At(uint32(n - ix.lo))
	head, *old = *old, 0
	if n+1 == 2*ix.lo {
		ix.lo *= 2
	}
	return head
}

// Grow gives an empty index max(n, 16) buckets at once, for an owner about
// to thread n runs: they then thread without a split. Runs threaded before
// are forgotten.
func (ix *Index) Grow(n int) {
	*ix = Index{}
	n = max(n, indexMinBuckets)
	for range n {
		ix.heads.Append()
	}
	ix.lo = 1 << (bits.Len(uint(n)) - 1)
}

// Insert threads the run at address at at the head of hash's chain and
// returns the link the run must hold to the one threaded before it: the
// bucket's old head, 0 when the bucket was empty. The index must not be
// Full.
func (ix *Index) Insert(at uint32, hash uint64) (next uint32) {
	ix.n++
	return ix.Reinsert(at, hash)
}

// Reinsert is Insert for a run of the chain a Split took apart: it is
// threaded again, not counted again.
func (ix *Index) Reinsert(at uint32, hash uint64) (next uint32) {
	head := ix.heads.At(ix.Bucket(hash))
	next, *head = *head, at+1
	return next
}

// Linked returns the run a link points at — what follows its link word,
// to the end of its chunk — and the next link of its chain, for an owner
// whose runs all begin with their link.
func (a *Arena) Linked(link uint32) (run []byte, next uint32) {
	b := a.Tail(link - 1)
	return b[LinkSize:], binary.LittleEndian.Uint32(b)
}
