package sketch

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"unsafe"

	"scrub/internal/wire"
)

// SpaceSaving is the stream-summary structure of Metwally, Agrawal and El
// Abbadi ("Efficient Computation of Frequent and Top-k Elements in Data
// Streams"), which Scrub uses for the TOP-K aggregate. It tracks at most
// `capacity` counters; when a new item arrives with all counters occupied,
// it evicts the minimum counter and inherits its count as overestimation
// error. Guarantees: count(x) <= trueCount(x) + min; every item with true
// count > N/capacity is present.
//
// The summary is four flat arrays whose entries refer to each other by
// uint32 index (DESIGN.md §17): counters; a binary min-heap of counters
// ordered by (count, item), whose root is the next takeover's victim; the
// bucket heads of a chained hash index over the item bytes; and the item
// bytes themselves, a slot per counter. The arrays grow with the number of
// tracked items up to capacity, and once every counter exists an addition
// allocates nothing: a takeover writes the new item into the victim's slot.
type SpaceSaving struct {
	capacity int
	ctr      []ssCounter
	heap     []uint32
	heads    []uint32
	// items holds every counter's slot. A taken-over counter whose new
	// item does not fit gets a new slot at the end and leaves dead bytes
	// behind; the store is compacted when half of it is dead.
	items []byte
	dead  int
}

// none is the nil index.
const none = ^uint32(0)

type ssCounter struct {
	count  uint64
	errVal uint64 // overestimation inherited at takeover
	// The item is items[off : off+len], in a slot of cap bytes.
	off, len, cap uint32
	hash          uint32 // the item's hash, low half: its chain is heads[hash&mask]
	hnext         uint32 // next counter of the hash chain
	pos           uint32 // the counter's place in the heap
}

// hashSeed is drawn once per process, so no input can be built to land in
// one chain. Nothing's order depends on a hash: the heap orders counters by
// item bytes, and what is reported or serialized is sorted first.
var hashSeed = maphash.MakeSeed()

// NewSpaceSaving creates a summary with the given counter capacity.
func NewSpaceSaving(capacity int) (*SpaceSaving, error) {
	if capacity <= 0 || int64(capacity) >= int64(none) {
		return nil, fmt.Errorf("sketch: SpaceSaving capacity must be positive (and below 2^32), got %d", capacity)
	}
	return &SpaceSaving{capacity: capacity}, nil
}

// MustSpaceSaving is NewSpaceSaving that panics on error.
func MustSpaceSaving(capacity int) *SpaceSaving {
	s, err := NewSpaceSaving(capacity)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of currently tracked items.
func (s *SpaceSaving) Len() int { return len(s.ctr) }

// Bytes is the capacity of the summary's arrays, in bytes: at most
// capacity × (a counter, a heap entry and two index heads) plus the item
// slots.
func (s *SpaceSaving) Bytes() int64 {
	return int64(unsafe.Sizeof(*s)) +
		int64(cap(s.ctr))*int64(unsafe.Sizeof(ssCounter{})) +
		int64(cap(s.heap)+cap(s.heads))*4 + int64(cap(s.items))
}

// AddBytes increments item by one. The item is held in a caller-owned
// buffer, which may be reused after the call returns: the summary keeps
// its own copy of an item it starts to track.
//
//scrub:hotpath
func (s *SpaceSaving) AddBytes(item []byte) { s.add(item, 1) }

func (s *SpaceSaving) add(item []byte, n uint64) {
	h := maphash.Bytes(hashSeed, item)
	if ci := s.find(h, item); ci != none {
		s.bump(ci, n)
		return
	}
	if len(s.ctr) < s.capacity {
		s.track(h, item, n, 0)
		return
	}
	// Evict the minimum counter, the heap's root: the new item takes it
	// over, inheriting its count as error.
	ci := s.heap[0]
	c := &s.ctr[ci]
	s.unindex(ci)
	c.errVal = c.count
	s.store(c, item)
	s.index(ci, uint32(h))
	s.bump(ci, n)
}

// find returns the counter tracking item, whose hash is h.
func (s *SpaceSaving) find(h uint64, item []byte) uint32 {
	if len(s.heads) == 0 {
		return none
	}
	for ci := s.heads[uint32(h)&uint32(len(s.heads)-1)]; ci != none; {
		if s.ctr[ci].hash == uint32(h) && bytes.Equal(s.item(ci), item) {
			return ci
		}
		ci = s.ctr[ci].hnext
	}
	return none
}

// index threads counter ci, whose item hashes to h, at the head of its
// chain.
func (s *SpaceSaving) index(ci, h uint32) {
	head := &s.heads[h&uint32(len(s.heads)-1)]
	s.ctr[ci].hash, s.ctr[ci].hnext = h, *head
	*head = ci
}

// unindex takes counter ci out of its hash chain.
func (s *SpaceSaving) unindex(ci uint32) {
	c := &s.ctr[ci]
	at := &s.heads[c.hash&uint32(len(s.heads)-1)]
	for *at != ci {
		at = &s.ctr[*at].hnext
	}
	*at = c.hnext
}

// item returns counter ci's item, aliasing the store.
func (s *SpaceSaving) item(ci uint32) []byte {
	c := &s.ctr[ci]
	return s.items[c.off : c.off+c.len]
}

// store writes item into c's slot, or into a new one when it does not fit
// (a new counter has none: no slot is shorter than eight bytes).
func (s *SpaceSaving) store(c *ssCounter, item []byte) {
	if len(item) > int(c.cap) || c.cap == 0 {
		s.dead += int(c.cap)
		if s.dead > len(s.items)/2 {
			c.cap = 0 // this slot is not carried over
			s.compact(len(item))
		}
		c.off, c.cap = uint32(len(s.items)), uint32(max(8, (len(item)+7)&^7))
		//scrub:allowalloc(a longer item than the counter ever held: slots only grow)
		s.items = append(s.items, make([]byte, c.cap)...)
	}
	c.len = uint32(copy(s.items[c.off:], item))
	if c.len < 8 {
		clear(s.items[c.off+c.len : c.off+8]) // prefix reads a short item zero-padded
	}
}

// prefix is the first eight bytes of counter ci's item as a big-endian
// number, a shorter item padded with zeros (a slot is eight bytes at
// least): items order as their prefixes do, wherever these differ.
func (s *SpaceSaving) prefix(ci uint32) uint64 {
	return binary.BigEndian.Uint64(s.items[s.ctr[ci].off:])
}

// compact moves the live slots, at their capacities, into a new store with
// room for one more slot of extra bytes.
//
//scrub:allowalloc(once per half a store of abandoned slots)
func (s *SpaceSaving) compact(extra int) {
	live := make([]byte, 0, len(s.items)-s.dead+extra+8)
	for i := range s.ctr {
		c := &s.ctr[i]
		off := uint32(len(live))
		live = append(live, s.items[c.off:c.off+c.cap]...)
		c.off = off
	}
	s.items, s.dead = live, 0
}

// track starts a counter for an untracked item at count n.
//
//scrub:allowalloc(the arrays grow with the number of tracked items, up to capacity)
func (s *SpaceSaving) track(h uint64, item []byte, n, errVal uint64) {
	if len(s.ctr) == cap(s.ctr) {
		s.grow(min(max(2*cap(s.ctr), 8), s.capacity))
	}
	ci := uint32(len(s.ctr))
	s.ctr = append(s.ctr, ssCounter{count: n, errVal: errVal})
	s.store(&s.ctr[ci], item)
	s.index(ci, uint32(h))
	s.heap = append(s.heap, ci)
	s.up(len(s.heap) - 1)
}

// grow makes room for n counters and their heap entries, and sizes the
// hash index for them — a head per counter at least, a power of two of
// them — threading the tracked items again.
func (s *SpaceSaving) grow(n int) {
	s.ctr = append(make([]ssCounter, 0, n), s.ctr...)
	s.heap = append(make([]uint32, 0, n), s.heap...)
	heads := 8
	for heads < n {
		heads *= 2
	}
	s.heads = make([]uint32, heads)
	for i := range s.heads {
		s.heads[i] = none
	}
	for ci := range s.ctr {
		s.index(uint32(ci), s.ctr[ci].hash)
	}
}

// bump moves a counter up by n, and down the heap.
//
//scrub:hotpath
func (s *SpaceSaving) bump(ci uint32, n uint64) {
	s.ctr[ci].count += n
	s.down(int(s.ctr[ci].pos))
}

// less orders counters by count, then by item: the heap's root is the
// lexicographically smallest item at the minimum count, so identical
// streams always evict the same victims. An order that depended on the
// order of earlier additions would make replays (and Engine vs
// ShardedEngine comparisons) depend on what a serialized summary does not
// record.
func (s *SpaceSaving) less(a, b uint32) bool {
	if ca, cb := s.ctr[a].count, s.ctr[b].count; ca != cb {
		return ca < cb
	}
	pa, pb := s.prefix(a), s.prefix(b)
	return pa < pb || pa == pb && bytes.Compare(s.item(a), s.item(b)) < 0
}

// up moves the counter at heap[i] toward the root past every parent that
// orders after it.
//
//scrub:hotpath
func (s *SpaceSaving) up(i int) {
	ci := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(ci, s.heap[p]) {
			break
		}
		s.place(i, s.heap[p])
		i = p
	}
	s.place(i, ci)
}

// down moves the counter at heap[i] toward the leaves past every child
// that orders before it.
//
//scrub:hotpath
func (s *SpaceSaving) down(i int) {
	ci := s.heap[i]
	for {
		c := 2*i + 1
		if c >= len(s.heap) {
			break
		}
		if c+1 < len(s.heap) && s.less(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.less(s.heap[c], ci) {
			break
		}
		s.place(i, s.heap[c])
		i = c
	}
	s.place(i, ci)
}

// place puts counter ci at heap[i].
func (s *SpaceSaving) place(i int, ci uint32) {
	s.heap[i], s.ctr[ci].pos = ci, uint32(i)
}

// EachTop calls f with the k highest-count entries, ties broken by item
// for determinism. item aliases the summary's store: it is valid until the
// next addition.
func (s *SpaceSaving) EachTop(k int, f func(item []byte, count, errVal uint64)) {
	order := make([]uint32, len(s.ctr))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if c := cmp.Compare(s.ctr[b].count, s.ctr[a].count); c != 0 {
			return c
		}
		return bytes.Compare(s.item(a), s.item(b))
	})
	for _, ci := range order[:max(0, min(k, len(order)))] {
		f(s.item(ci), s.ctr[ci].count, s.ctr[ci].errVal)
	}
}

// Merge folds another summary into s using the mergeable-summaries
// algorithm for SpaceSaving: counts and errors for common items add; an
// item tracked by only one full summary may still have occurred up to
// the other summary's minimum count times there, so it inherits that
// minimum as both count and overestimation error (absence from a
// below-capacity summary means a true zero and inherits nothing). The
// merged items are ranked by count and the top `capacity` survive. This
// keeps both sides of the SpaceSaving guarantee sound after any merge
// tree: trueCount(x) <= Count(x) and Count(x) − Err(x) <= trueCount(x).
func (s *SpaceSaving) Merge(o *SpaceSaving) {
	if o == nil || o.Len() == 0 {
		return
	}
	minS, minO := s.minInheritance(), o.minInheritance()
	u := &SpaceSaving{capacity: len(s.ctr) + len(o.ctr)}
	u.grow(u.capacity)
	for i := range s.ctr {
		c, item := &s.ctr[i], s.item(uint32(i))
		h := maphash.Bytes(hashSeed, item)
		if oi := o.find(h, item); oi != none {
			u.track(h, item, c.count+o.ctr[oi].count, c.errVal+o.ctr[oi].errVal)
		} else {
			u.track(h, item, c.count+minO, c.errVal+minO)
		}
	}
	for i := range o.ctr {
		c, item := &o.ctr[i], o.item(uint32(i))
		if h := maphash.Bytes(hashSeed, item); s.find(h, item) == none {
			u.track(h, item, c.count+minS, c.errVal+minS)
		}
	}
	m := MustSpaceSaving(s.capacity)
	m.grow(min(len(u.ctr), m.capacity))
	u.EachTop(m.capacity, func(item []byte, count, errVal uint64) {
		m.track(maphash.Bytes(hashSeed, item), item, count, errVal)
	})
	*s = *m
}

// minInheritance returns the count an untracked item could have reached
// in this summary: the minimum tracked count when at capacity, else 0
// (a below-capacity summary tracks everything it has ever seen).
func (s *SpaceSaving) minInheritance() uint64 {
	if len(s.ctr) < s.capacity {
		return 0
	}
	return s.ctr[s.heap[0]].count
}

// CodeSpaceSaving codes summary s in c's mode: capacity, entry count, then
// every tracked entry in descending-count order (ties by item). A
// SpaceSaving's observable behavior — counts, eviction victims, merge
// inheritance — is fully determined by its (item, count, err) multiset
// plus capacity, so this form is lossless even though the heap is not
// written. Decoding refills s from the entries, which determine the heap;
// bytes of another capacity than s's, or that list an item twice, are
// refused.
func CodeSpaceSaving(c *wire.Coder, s *SpaceSaving) {
	capacity, cnt := uint64(s.capacity), uint64(len(s.ctr))
	c.Uvarint(&capacity)
	c.Uvarint(&cnt)
	if c.Mode != wire.Decoding {
		s.EachTop(len(s.ctr), func(item []byte, count, errVal uint64) {
			e := ssEntry{item, count, errVal}
			e.code(c)
		})
		return
	}
	if c.Err != nil {
		return
	}
	if capacity != uint64(s.capacity) {
		c.Failf("SpaceSaving capacity %d, want %d", capacity, s.capacity)
		return
	}
	// An entry takes at least three bytes: more entries than bytes left
	// cannot be there.
	if cnt > capacity || cnt > uint64(len(c.Rest())) {
		c.Failf("implausible SpaceSaving entry count %d (capacity %d)", cnt, capacity)
		return
	}
	*s = SpaceSaving{capacity: s.capacity}
	if cnt > 0 {
		s.grow(int(cnt))
	}
	for i := uint64(0); i < cnt; i++ {
		var e ssEntry
		e.code(c)
		if c.Err != nil {
			return
		}
		h := maphash.Bytes(hashSeed, e.item)
		if s.find(h, e.item) != none {
			c.Failf("SpaceSaving item %q listed twice", e.item)
			return
		}
		s.track(h, e.item, e.count, e.errVal)
	}
}

// ssEntry is one tracked entry as it is coded. Decoding, item points into
// the input; track copies it.
type ssEntry struct {
	item          []byte
	count, errVal uint64
}

func (e *ssEntry) code(c *wire.Coder) {
	c.BytesAlias(&e.item)
	c.Uvarint(&e.count)
	c.Uvarint(&e.errVal)
}
