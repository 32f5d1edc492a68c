package slab

import "encoding/binary"

// Index is a hash index over runs of an Arena that keeps no entry of its
// own: a power-of-two array of bucket heads, each a link to the newest run
// of its bucket, with the collision chain continuing through the runs
// themselves. A link is a run's address plus one; 0 ends a chain (address
// 0 is a real run, the arena's first). The index reads and writes only its
// heads: the owner lays out its runs, decides which of them hold a link to
// the run threaded before them in the same bucket, and writes that link —
// Insert returns it. The runs' keys and hashes are the owner's business
// too: the owner hashes, walks a chain from Head and compares keys in
// place. An owner may leave the link out of a run that finds its bucket
// empty (Head is 0): growing only multiplies the heads by a power of two
// and the owner threads its runs again in the order they were appended, so
// no run threaded before such a run ever shares its bucket, and it stays
// the last of its chain. Several indexes may thread disjoint sets of runs
// of one arena. The link words are the one part of an arena that is
// rewritten — when the heads have grown and the owner threads every run
// again — and no slice or String an owner keeps covers one. The zero Index
// is empty (and Full); it is not safe for concurrent use.
type Index struct {
	heads []uint32
	n     int // runs threaded
}

const (
	// LinkSize is how many bytes a link takes in a run.
	LinkSize = 4
	// indexMinBuckets is the size of the first heads array.
	indexMinBuckets = 16
)

// Head returns the link to the newest run in hash's bucket, 0 when the
// bucket is empty.
func (ix *Index) Head(hash uint64) uint32 {
	if len(ix.heads) == 0 {
		return 0
	}
	return ix.heads[hash&uint64(len(ix.heads)-1)]
}

// Len is the number of runs threaded.
func (ix *Index) Len() int { return ix.n }

// Bytes is the capacity of the heads array in bytes.
func (ix *Index) Bytes() int64 { return int64(len(ix.heads)) * 4 }

// Full reports that the index holds a run per bucket: before the next
// Insert its owner must Grow it, so chains stay about one run long.
func (ix *Index) Full() bool { return ix.n == len(ix.heads) }

// Grow replaces the heads with at least twice as many — and at least n,
// the number of runs the owner is about to thread: an owner that knows how
// many it holds grows to that once, not by doubling up to it — and forgets
// every run. The owner then Inserts all its runs again in the order they
// were appended — it alone knows where each ends and what it hashes to —
// so every chain still runs newest first, and growing reads the arena
// front to back: only the new heads, a sixteenth of a cache line a run,
// are written at random.
func (ix *Index) Grow(n int) {
	size := max(indexMinBuckets, 2*len(ix.heads))
	for size < n {
		size *= 2
	}
	ix.heads = make([]uint32, size)
	ix.n = 0
}

// Insert threads the run at address at at the head of hash's chain and
// returns the link the run must hold to the one threaded before it: the
// bucket's old head, 0 when the bucket was empty. The index must not be
// Full.
func (ix *Index) Insert(at uint32, hash uint64) (next uint32) {
	head := &ix.heads[hash&uint64(len(ix.heads)-1)]
	next, *head = *head, at+1
	ix.n++
	return next
}

// Linked returns the run a link points at — what follows its link word,
// to the end of its chunk — and the next link of its chain, for an owner
// whose runs all begin with their link.
func (a *Arena) Linked(link uint32) (run []byte, next uint32) {
	b := a.Tail(link - 1)
	return b[LinkSize:], binary.LittleEndian.Uint32(b)
}
