package slab

import "unsafe"

// Arena is Slab's sibling for variable-length byte runs: an append-only
// byte store kept in chunks that are never reallocated and never
// rewritten, addressed by uint32. Chunk sizes double from ArenaMinChunk
// to ArenaMaxChunk bytes and stay there; a run never straddles a chunk
// (what is left of the current one is skipped), and a run longer than
// ArenaMaxChunk gets a chunk of exactly its own size, so no length is
// refused. Because written bytes never change (but for the link words an
// Index threads through its runs' headers, index.go) and a chunk lives as
// long as anything points into it, a slice — or a String — taken from a
// run's payload stays valid for as long as its holder keeps it, whatever
// happens to the arena. The chunks hold no pointers: the collector never
// scans them. The zero Arena is empty and ready to use; it is not safe for
// concurrent use.
type Arena struct {
	chunks    [][]byte // len: bytes written; cap: the chunk's size
	regular   int      // chunks of the doubling sequence allocated so far
	allocated int64
}

const (
	arenaMinShift = 8
	arenaMaxShift = 13
	ArenaMinChunk = 1 << arenaMinShift
	ArenaMaxChunk = 1 << arenaMaxShift
	// An address is chunk<<arenaMaxShift | offset: offsets inside a
	// regular chunk fit below the shift, and a run with a chunk of its own
	// starts at offset 0.
	arenaMaxChunks = 1 << (32 - arenaMaxShift)
)

// Append copies b into the arena as one run and returns its address. The
// empty run takes no space and has address 0. It fails only when the
// arena has run out of addresses.
func (a *Arena) Append(b []byte) (uint32, bool) {
	if len(b) == 0 {
		return 0, true
	}
	k := len(a.chunks) - 1
	if k < 0 || len(b) > cap(a.chunks[k])-len(a.chunks[k]) {
		if !a.grow(len(b)) {
			return 0, false
		}
		k++
	}
	off := len(a.chunks[k])
	a.chunks[k] = append(a.chunks[k], b...) // within capacity: the chunk never moves
	return Addr(k, off), true
}

// grow starts the chunk that will hold a run of n bytes: the next of the
// doubling sequence that is large enough, or one of exactly n bytes when
// no regular chunk is. A chunk of the second kind is full from the start,
// so the run after it starts a regular chunk again and runs stay in
// append order across chunks.
//
//scrub:allowalloc(a new chunk: amortised over the runs that fill it)
func (a *Arena) grow(n int) bool {
	if len(a.chunks) >= arenaMaxChunks {
		return false
	}
	size := n
	if n <= ArenaMaxChunk {
		for {
			size = ArenaMinChunk << min(a.regular, arenaMaxShift-arenaMinShift)
			a.regular++
			if size >= n {
				break
			}
		}
	}
	a.chunks = append(a.chunks, make([]byte, 0, size))
	a.allocated += int64(size)
	return true
}

// Tail returns what the run's chunk holds from the run's first byte on:
// the run itself followed by the runs appended after it. Runs written in
// a self-delimiting encoding need no stored length.
func (a *Arena) Tail(at uint32) []byte {
	c := a.chunks[at>>arenaMaxShift]
	return c[at&(ArenaMaxChunk-1) : len(c) : len(c)]
}

// Chunks returns the written part of every chunk in append order: the
// arena's runs back to back, without the skipped remainders. The caller
// must not modify them.
func (a *Arena) Chunks() [][]byte { return a.chunks }

// Addr is the address of the run that starts at byte off of Chunks()[k].
func Addr(k, off int) uint32 { return uint32(k)<<arenaMaxShift | uint32(off) }

// Bytes is the capacity allocated so far, in bytes.
func (a *Arena) Bytes() int64 { return a.allocated }

// String returns b's bytes as a string without copying them. The caller
// guarantees that b is never modified while the string is reachable —
// which holds for any slice of an Arena chunk. It is the one place the
// window state turns stored bytes back into a string a Value can carry,
// and the reason this package imports unsafe.
func String(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
