package slab

import (
	"encoding/binary"
	"math/bits"
)

// Index is a hash index over runs of an Arena that keeps no entry of its
// own: bucket heads, each a link to the newest run of its bucket, with the
// collision chain continuing through the runs themselves. A link is a
// run's address plus one; 0 ends a chain (address 0 is a real run). The
// owner hashes, walks a chain from Head and compares keys in place; the
// chain is the index's. Every run it threads begins with a header that
// AppendHeader writes and ParseHeader reads — a uvarint of the owner's
// bits<<1 | linked, then, when linked, the 4-byte link to the run threaded
// before it in its bucket — and the owner's bytes follow it.
//
// A run holds a link only when its bucket held a run when it was
// threaded. The heads grow by linear hashing (Litwin, VLDB 1980), a bucket
// at a time: Split divides bucket b of a round of lo buckets into b and
// b + lo, and a round ends when all lo are split. A split never merges two
// chains and keeps the order of the one it divides, so a linkless run
// stays the last of its chain. The link words are the one part of an
// arena that is rewritten, and no slice or String an owner keeps covers
// one. The heads are 256-entry segments, the first grown by doubling, so
// a bucket's head is a shift and a mask away and the slack is one partly
// filled segment. The zero Index is empty and ready to use: it has no
// buckets, Head finds nothing in it, it is Full, and its first Split (or
// a Grow) gives it its first round. It is not safe for concurrent use.
type Index struct {
	segs  [][]uint32 // the heads, segLen to a segment
	heads uint64     // buckets made
	lo    uint64     // the round's buckets, a power of two ≤ heads; 0 while there are none
	n     int        // runs threaded
}

const (
	// LinkSize is how many bytes a link takes in a run's header.
	LinkSize = 4
	// indexMinBuckets is the size of the first round.
	indexMinBuckets = 16
	segShift        = 8
	segLen          = 1 << segShift
)

// Bucket is the bucket a run of hash is threaded in: hash's low bits
// below 2·lo, or below lo when that bucket is not split off yet. The index
// must have buckets. The choice is arithmetic, not a branch: which way it
// goes follows the hash, so a branch would be mispredicted about as often
// as not.
func (ix *Index) Bucket(hash uint64) uint64 {
	b := hash & (2*ix.lo - 1)
	unsplit := (ix.heads - 1 - b) >> 63 // 1 when b ≥ the heads
	return b - ix.lo&-unsplit
}

// Head returns the link to the newest run in hash's bucket, 0 when the
// bucket is empty or the index has no buckets.
func (ix *Index) Head(hash uint64) uint32 {
	if ix.lo == 0 {
		return 0
	}
	return *ix.head(ix.Bucket(hash))
}

// head is bucket b's head.
func (ix *Index) head(b uint64) *uint32 { return &ix.segs[b>>segShift][b&(segLen-1)] }

// Len is the number of runs threaded.
func (ix *Index) Len() int { return ix.n }

// Bytes is the capacity of the heads in bytes: every segment but the
// first is a whole one.
func (ix *Index) Bytes() int64 {
	if len(ix.segs) == 0 {
		return 0
	}
	return 4 * int64(cap(ix.segs[0])+segLen*(len(ix.segs)-1))
}

// Full reports that the index holds a run per bucket: before the next
// run is laid out its owner must Split a bucket, so chains stay about one
// run long.
func (ix *Index) Full() bool { return uint64(ix.n) >= ix.heads }

// Grow gives an empty index max(n, 16) buckets at once, for an owner about
// to thread n runs: they then thread without a split. Runs threaded before
// are forgotten.
func (ix *Index) Grow(n int) {
	n = max(n, indexMinBuckets)
	*ix = Index{heads: uint64(n), lo: 1 << (bits.Len(uint(n)) - 1)}
	ix.segs = [][]uint32{make([]uint32, min(n, segLen))}
	for n -= segLen; n > 0; n -= segLen {
		ix.segs = append(ix.segs, make([]uint32, min(n, segLen), segLen))
	}
}

// addBucket makes the next bucket, empty: in a new segment once the last
// is whole, else at its end, doubling the first segment when it is full.
//
//scrub:allowalloc(a segment of heads every 256 buckets; the first segment's doublings)
func (ix *Index) addBucket() {
	last := &ix.segs[len(ix.segs)-1]
	if n := len(*last); n == segLen {
		ix.segs = append(ix.segs, make([]uint32, 1, segLen))
	} else if n < cap(*last) {
		*last = (*last)[:n+1]
	} else {
		*last = append(make([]uint32, 0, min(2*n, segLen)), *last...)[:n+1]
	}
	ix.heads++
}

// Split adds a bucket, the one the round's next bucket splits into, and
// threads the runs of that next bucket's chain again, oldest first, each
// into whichever of the two buckets hash (the owner's hash of a run in a,
// given its parsed header) now picks, rewriting each linked run's link:
// both chains run newest first again, and the chain's linkless run, its
// oldest, is threaded first into an empty bucket and stays last. An
// index without buckets gets its first round instead.
//
//scrub:allowalloc(a chain longer than the scratch)
func (ix *Index) Split(a *Arena, hash func(run []byte, h Header) uint64) {
	if ix.lo == 0 {
		ix.Grow(0)
		return
	}
	old := ix.head(ix.heads - ix.lo)
	link := *old
	*old = 0
	ix.addBucket()
	if ix.heads == 2*ix.lo {
		ix.lo *= 2
	}
	var scratch [16]uint32
	chain := scratch[:0]
	for ; link != 0; link = ParseHeader(a.Tail(link - 1)).Next {
		chain = append(chain, link)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		at := chain[i] - 1
		run := a.Tail(at)
		h := ParseHeader(run)
		next := ix.thread(at, hash(run, h))
		if h.Linked {
			binary.LittleEndian.PutUint32(run[h.Len-LinkSize:], next)
		}
	}
}

// AppendHeader appends to dst the header of a run about to be threaded in
// hash's bucket, over the owner's bits (below 2^63): a link to the
// bucket's head, none when it is empty. The owner appends its bytes and
// the run, and Inserts it under the same hash with no Split between. The
// index must not be Full.
func (ix *Index) AppendHeader(dst []byte, hash, bits uint64) []byte {
	next := ix.Head(hash)
	if next == 0 {
		return binary.AppendUvarint(dst, bits<<1)
	}
	return binary.LittleEndian.AppendUint32(binary.AppendUvarint(dst, bits<<1|1), next)
}

// Insert threads the run at address at, whose header AppendHeader laid
// out for hash.
func (ix *Index) Insert(at uint32, hash uint64) {
	ix.n++
	ix.thread(at, hash)
}

// thread makes the run at address at the head of hash's bucket and
// returns the bucket's old head.
func (ix *Index) thread(at uint32, hash uint64) (next uint32) {
	head := ix.head(ix.Bucket(hash))
	next, *head = *head, at+1
	return next
}

// Header is a threaded run's header, parsed: the owner's bits, its length
// (where the owner's bytes begin), and whether the run holds a link and
// the link it holds or ends its chain with (Next 0).
type Header struct {
	Bits   uint64
	Len    int
	Linked bool
	Next   uint32
}

// ParseHeader parses the header of the run at the head of b.
func ParseHeader(b []byte) Header {
	v, n := uint64(b[0]&0x7f), 1
	for b[n-1] >= 0x80 {
		v |= uint64(b[n]&0x7f) << (7 * n)
		n++
	}
	h := Header{Bits: v >> 1, Len: n}
	if v&1 != 0 {
		h.Len, h.Linked = n+LinkSize, true
		h.Next = binary.LittleEndian.Uint32(b[n:])
	}
	return h
}
