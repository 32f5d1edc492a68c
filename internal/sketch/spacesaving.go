package sketch

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// SpaceSaving is the stream-summary structure of Metwally, Agrawal and El
// Abbadi ("Efficient Computation of Frequent and Top-k Elements in Data
// Streams"), which Scrub uses for the TOP-K aggregate. It tracks at most
// `capacity` counters; when a new item arrives with all counters occupied,
// it evicts the minimum counter and inherits its count as overestimation
// error. Guarantees: count(x) <= trueCount(x) + min; every item with true
// count > N/capacity is present.
type SpaceSaving struct {
	capacity int
	counters map[string]*ssCounter
	// buckets is a doubly linked list of distinct counts in ascending
	// order; each bucket holds the set of counters at that count. This is
	// the "stream summary" layout that gives O(1) increments.
	minBucket *ssBucket
}

type ssCounter struct {
	item   string
	count  uint64
	errVal uint64 // overestimation inherited at takeover
	bucket *ssBucket
}

type ssBucket struct {
	count      uint64
	members    map[*ssCounter]struct{}
	prev, next *ssBucket
}

// NewSpaceSaving creates a summary with the given counter capacity.
func NewSpaceSaving(capacity int) (*SpaceSaving, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("sketch: SpaceSaving capacity must be positive, got %d", capacity)
	}
	return &SpaceSaving{capacity: capacity, counters: make(map[string]*ssCounter, capacity)}, nil
}

// MustSpaceSaving is NewSpaceSaving that panics on error.
func MustSpaceSaving(capacity int) *SpaceSaving {
	s, err := NewSpaceSaving(capacity)
	if err != nil {
		panic(err)
	}
	return s
}

// Capacity returns the maximum number of tracked items.
func (s *SpaceSaving) Capacity() int { return s.capacity }

// Len returns the number of currently tracked items.
func (s *SpaceSaving) Len() int { return len(s.counters) }

// Add increments item by one.
func (s *SpaceSaving) Add(item string) { s.AddN(item, 1) }

// AddBytes is Add for an item held in a caller-owned buffer, which may be
// reused after the call returns: an item already tracked is looked up
// without allocating, and a string is made only when a counter is created
// or taken over.
func (s *SpaceSaving) AddBytes(item []byte) {
	if c, ok := s.counters[string(item)]; ok {
		s.bump(c, 1)
		return
	}
	s.AddN(string(item), 1)
}

// AddN increments item by n.
func (s *SpaceSaving) AddN(item string, n uint64) {
	if n == 0 {
		return
	}
	if c, ok := s.counters[item]; ok {
		s.bump(c, n)
		return
	}
	if len(s.counters) < s.capacity {
		c := &ssCounter{item: item, count: 0}
		s.counters[item] = c
		s.attach(c) // attach at count 0 bucket semantics via bump
		s.bump(c, n)
		return
	}
	// Evict the minimum counter: the new item takes it over, inheriting
	// its count as error.
	victim := s.anyMinCounter()
	delete(s.counters, victim.item)
	victim.errVal = victim.count
	victim.item = item
	s.counters[item] = victim
	s.bump(victim, n)
}

// attach places a fresh counter into a zero-count staging bucket.
func (s *SpaceSaving) attach(c *ssCounter) {
	b := s.minBucket
	if b == nil || b.count != 0 {
		nb := &ssBucket{count: 0, members: make(map[*ssCounter]struct{})}
		nb.next = s.minBucket
		if s.minBucket != nil {
			s.minBucket.prev = nb
		}
		s.minBucket = nb
		b = nb
	}
	b.members[c] = struct{}{}
	c.bucket = b
}

// bump moves a counter up by n, maintaining the bucket list.
func (s *SpaceSaving) bump(c *ssCounter, n uint64) {
	old := c.bucket
	newCount := c.count + n
	c.count = newCount

	// Find or create the destination bucket after old.
	cur := old
	for cur.next != nil && cur.next.count < newCount {
		cur = cur.next
	}
	var dst *ssBucket
	if cur.next != nil && cur.next.count == newCount {
		dst = cur.next
	} else {
		dst = &ssBucket{count: newCount, members: make(map[*ssCounter]struct{})}
		dst.prev = cur
		dst.next = cur.next
		if cur.next != nil {
			cur.next.prev = dst
		}
		cur.next = dst
	}
	delete(old.members, c)
	dst.members[c] = struct{}{}
	c.bucket = dst
	if len(old.members) == 0 {
		s.unlink(old)
	}
}

func (s *SpaceSaving) unlink(b *ssBucket) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.minBucket = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
}

// anyMinCounter picks the eviction victim from the minimum bucket: the
// lexicographically smallest item, so identical streams always build
// identical summaries. Map-order victim choice would make replays (and
// Engine vs ShardedEngine comparisons) nondeterministic. The scan is
// bounded by the summary capacity and only runs on eviction.
func (s *SpaceSaving) anyMinCounter() *ssCounter {
	var victim *ssCounter
	for c := range s.minBucket.members {
		if victim == nil || c.item < victim.item {
			victim = c
		}
	}
	return victim // nil is unreachable when Len > 0
}

// Entry is one reported heavy hitter. Count overestimates the true count by
// at most Err.
type Entry struct {
	Item  string
	Count uint64
	Err   uint64
}

// Top returns the k highest-count entries, ties broken by item for
// determinism.
func (s *SpaceSaving) Top(k int) []Entry {
	all := make([]Entry, 0, len(s.counters))
	for _, c := range s.counters {
		all = append(all, Entry{Item: c.item, Count: c.count, Err: c.errVal})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Item < all[j].Item
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Count returns the (over)estimate for an item and whether it is tracked.
func (s *SpaceSaving) Count(item string) (uint64, bool) {
	c, ok := s.counters[item]
	if !ok {
		return 0, false
	}
	return c.count, true
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
	minS := s.minInheritance()
	minO := o.minInheritance()
	merged := make(map[string]Entry, len(s.counters)+len(o.counters))
	for _, c := range s.counters {
		merged[c.item] = Entry{Item: c.item, Count: c.count, Err: c.errVal}
	}
	for _, c := range o.counters {
		if e, ok := merged[c.item]; ok {
			e.Count += c.count
			e.Err += c.errVal
			merged[c.item] = e
		} else {
			merged[c.item] = Entry{Item: c.item, Count: c.count + minS, Err: c.errVal + minS}
		}
	}
	if minO > 0 {
		for item, e := range merged {
			if _, inO := o.counters[item]; !inO {
				e.Count += minO
				e.Err += minO
				merged[item] = e
			}
		}
	}
	all := make([]Entry, 0, len(merged))
	for _, e := range merged {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Item < all[j].Item
	})
	if len(all) > s.capacity {
		all = all[:s.capacity]
	}
	s.rebuild(all)
}

// minInheritance returns the count an untracked item could have reached
// in this summary: the minimum tracked count when at capacity, else 0
// (a below-capacity summary tracks everything it has ever seen).
func (s *SpaceSaving) minInheritance() uint64 {
	if len(s.counters) < s.capacity || s.minBucket == nil {
		return 0
	}
	return s.minBucket.count
}

// rebuild replaces the summary's contents with entries sorted by
// descending count, reconstructing the ascending bucket list.
func (s *SpaceSaving) rebuild(entries []Entry) {
	s.counters = make(map[string]*ssCounter, s.capacity)
	s.minBucket = nil
	var prev *ssBucket
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		c := &ssCounter{item: e.Item, count: e.Count, errVal: e.Err}
		s.counters[e.Item] = c
		if prev == nil || prev.count != e.Count {
			b := &ssBucket{count: e.Count, members: make(map[*ssCounter]struct{}), prev: prev}
			if prev != nil {
				prev.next = b
			} else {
				s.minBucket = b
			}
			prev = b
		}
		prev.members[c] = struct{}{}
		c.bucket = prev
	}
}

// AppendBinary serializes the summary: capacity, entry count, then every
// tracked entry in descending-count order (ties by item). A SpaceSaving's
// observable behavior — counts, eviction victims, merge inheritance — is
// fully determined by its (item, count, err) multiset plus capacity, so
// this encoding is lossless even though the bucket list is not written.
func (s *SpaceSaving) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.capacity))
	entries := s.Top(len(s.counters))
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, uint64(len(e.Item)))
		dst = append(dst, e.Item...)
		dst = binary.AppendUvarint(dst, e.Count)
		dst = binary.AppendUvarint(dst, e.Err)
	}
	return dst
}

// DecodeSpaceSaving parses a summary serialized by AppendBinary, returning
// bytes consumed. The decoded summary behaves identically to the encoded
// one: rebuild reconstructs the canonical bucket layout from the entries.
func DecodeSpaceSaving(b []byte) (*SpaceSaving, int, error) {
	capacity, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: bad capacity")
	}
	cnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 {
		return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: bad entry count")
	}
	n += sz
	if cnt > capacity || cnt > uint64(len(b)) {
		return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: implausible entry count %d (capacity %d)", cnt, capacity)
	}
	s, err := NewSpaceSaving(int(capacity))
	if err != nil {
		return nil, 0, err
	}
	entries := make([]Entry, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		ln, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: bad item length")
		}
		n += sz
		if uint64(len(b)-n) < ln {
			return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: short item")
		}
		item := string(b[n : n+int(ln)])
		n += int(ln)
		count, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: bad count")
		}
		n += sz
		errVal, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: bad err")
		}
		n += sz
		entries = append(entries, Entry{Item: item, Count: count, Err: errVal})
	}
	if len(entries) > 0 {
		s.rebuild(entries)
	}
	return s, n, nil
}

// TotalCount returns the sum of all tracked counts (≥ the number of
// additions routed to tracked items).
func (s *SpaceSaving) TotalCount() uint64 {
	var t uint64
	for _, c := range s.counters {
		t += c.count
	}
	return t
}
