package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// refSpaceSaving is the summary as it was before SpaceSaving became flat
// arrays and a heap: a Go map from item to counter and a linked list of
// count buckets, each a map of its members. It is kept, unchanged but for
// its names and the victims log, as the model SpaceSaving is checked
// against (TestSpaceSavingMatchesReference,
// FuzzSpaceSavingMatchesReference): same entries, same eviction victims —
// the least item of its minimum bucket is the heap's root — and same
// serialized bytes.
type refSpaceSaving struct {
	capacity int
	victims  []string // every item a takeover evicted, in order
	counters map[string]*refCounter
	// buckets is a doubly linked list of distinct counts in ascending
	// order; each bucket holds the set of counters at that count. This is
	// the "stream summary" layout that gives O(1) increments.
	minBucket *refBucket
}

type refCounter struct {
	item   string
	count  uint64
	errVal uint64 // overestimation inherited at takeover
	bucket *refBucket
}

type refBucket struct {
	count      uint64
	members    map[*refCounter]struct{}
	prev, next *refBucket
}

// newRefSpaceSaving creates a summary with the given counter capacity.
func newRefSpaceSaving(capacity int) (*refSpaceSaving, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("sketch: refSpaceSaving capacity must be positive, got %d", capacity)
	}
	return &refSpaceSaving{capacity: capacity, counters: make(map[string]*refCounter, capacity)}, nil
}

// mustRefSpaceSaving is newRefSpaceSaving that panics on error.
func mustRefSpaceSaving(capacity int) *refSpaceSaving {
	s, err := newRefSpaceSaving(capacity)
	if err != nil {
		panic(err)
	}
	return s
}

// Capacity returns the maximum number of tracked items.
func (s *refSpaceSaving) Capacity() int { return s.capacity }

// Len returns the number of currently tracked items.
func (s *refSpaceSaving) Len() int { return len(s.counters) }

// Add increments item by one.
func (s *refSpaceSaving) Add(item string) { s.AddN(item, 1) }

// AddBytes is Add for an item held in a caller-owned buffer, which may be
// reused after the call returns: an item already tracked is looked up
// without allocating, and a string is made only when a counter is created
// or taken over.
func (s *refSpaceSaving) AddBytes(item []byte) {
	if c, ok := s.counters[string(item)]; ok {
		s.bump(c, 1)
		return
	}
	s.AddN(string(item), 1)
}

// AddN increments item by n.
func (s *refSpaceSaving) AddN(item string, n uint64) {
	if c, ok := s.counters[item]; ok {
		s.bump(c, n)
		return
	}
	if len(s.counters) < s.capacity {
		c := &refCounter{item: item, count: 0}
		s.counters[item] = c
		s.attach(c) // attach at count 0 bucket semantics via bump
		s.bump(c, n)
		return
	}
	// Evict the minimum counter: the new item takes it over, inheriting
	// its count as error.
	victim := s.anyMinCounter()
	s.victims = append(s.victims, victim.item)
	delete(s.counters, victim.item)
	victim.errVal = victim.count
	victim.item = item
	s.counters[item] = victim
	s.bump(victim, n)
}

// attach places a fresh counter into a zero-count staging bucket.
func (s *refSpaceSaving) attach(c *refCounter) {
	b := s.minBucket
	if b == nil || b.count != 0 {
		nb := &refBucket{count: 0, members: make(map[*refCounter]struct{})}
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
func (s *refSpaceSaving) bump(c *refCounter, n uint64) {
	old := c.bucket
	newCount := c.count + n
	c.count = newCount

	// Find or create the destination bucket after old.
	cur := old
	for cur.next != nil && cur.next.count < newCount {
		cur = cur.next
	}
	var dst *refBucket
	if cur.next != nil && cur.next.count == newCount {
		dst = cur.next
	} else {
		dst = &refBucket{count: newCount, members: make(map[*refCounter]struct{})}
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

func (s *refSpaceSaving) unlink(b *refBucket) {
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
func (s *refSpaceSaving) anyMinCounter() *refCounter {
	var victim *refCounter
	for c := range s.minBucket.members {
		if victim == nil || c.item < victim.item {
			victim = c
		}
	}
	return victim // nil is unreachable when Len > 0
}

// Top returns the k highest-count entries, ties broken by item for
// determinism.
func (s *refSpaceSaving) Top(k int) []Entry {
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
func (s *refSpaceSaving) Count(item string) (uint64, bool) {
	c, ok := s.counters[item]
	if !ok {
		return 0, false
	}
	return c.count, true
}

// Merge folds another summary into s using the mergeable-summaries
// algorithm for refSpaceSaving: counts and errors for common items add; an
// item tracked by only one full summary may still have occurred up to
// the other summary's minimum count times there, so it inherits that
// minimum as both count and overestimation error (absence from a
// below-capacity summary means a true zero and inherits nothing). The
// merged items are ranked by count and the top `capacity` survive. This
// keeps both sides of the refSpaceSaving guarantee sound after any merge
// tree: trueCount(x) <= Count(x) and Count(x) − Err(x) <= trueCount(x).
func (s *refSpaceSaving) Merge(o *refSpaceSaving) {
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
func (s *refSpaceSaving) minInheritance() uint64 {
	if len(s.counters) < s.capacity || s.minBucket == nil {
		return 0
	}
	return s.minBucket.count
}

// rebuild replaces the summary's contents with entries sorted by
// descending count, reconstructing the ascending bucket list.
func (s *refSpaceSaving) rebuild(entries []Entry) {
	s.counters = make(map[string]*refCounter, s.capacity)
	s.minBucket = nil
	var prev *refBucket
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		c := &refCounter{item: e.Item, count: e.Count, errVal: e.Err}
		s.counters[e.Item] = c
		if prev == nil || prev.count != e.Count {
			b := &refBucket{count: e.Count, members: make(map[*refCounter]struct{}), prev: prev}
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
// tracked entry in descending-count order (ties by item). A refSpaceSaving's
// observable behavior — counts, eviction victims, merge inheritance — is
// fully determined by its (item, count, err) multiset plus capacity, so
// this encoding is lossless even though the bucket list is not written.
func (s *refSpaceSaving) AppendBinary(dst []byte) []byte {
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

// decodeRefSpaceSaving parses a summary serialized by AppendBinary, returning
// bytes consumed. The decoded summary behaves identically to the encoded
// one: rebuild reconstructs the canonical bucket layout from the entries.
func decodeRefSpaceSaving(b []byte) (*refSpaceSaving, int, error) {
	capacity, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("sketch: decode refSpaceSaving: bad capacity")
	}
	cnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 {
		return nil, 0, fmt.Errorf("sketch: decode refSpaceSaving: bad entry count")
	}
	n += sz
	if cnt > capacity || cnt > uint64(len(b)) {
		return nil, 0, fmt.Errorf("sketch: decode refSpaceSaving: implausible entry count %d (capacity %d)", cnt, capacity)
	}
	s, err := newRefSpaceSaving(int(capacity))
	if err != nil {
		return nil, 0, err
	}
	entries := make([]Entry, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		ln, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("sketch: decode refSpaceSaving: bad item length")
		}
		n += sz
		if uint64(len(b)-n) < ln {
			return nil, 0, fmt.Errorf("sketch: decode refSpaceSaving: short item")
		}
		item := string(b[n : n+int(ln)])
		n += int(ln)
		count, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("sketch: decode refSpaceSaving: bad count")
		}
		n += sz
		errVal, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("sketch: decode refSpaceSaving: bad err")
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
func (s *refSpaceSaving) TotalCount() uint64 {
	var t uint64
	for _, c := range s.counters {
		t += c.count
	}
	return t
}

// ssPair is a summary and the map-based reference it replaced, driven
// through the same operations and compared after every one of them.
type ssPair struct {
	t   testing.TB
	got *SpaceSaving
	ref *refSpaceSaving
	// evictions counts the takeovers seen; ref.victims lists those since
	// the reference was last replaced.
	evictions int
	// Every addition's victim is checked, and every every'th addition's
	// entries and bytes.
	ops, every int
}

func newSSPair(t testing.TB, capacity int) *ssPair {
	every := 1
	if capacity >= 256 {
		every = capacity / 16 // a comparison sorts both summaries
	}
	return &ssPair{t: t, got: MustSpaceSaving(capacity), ref: mustRefSpaceSaving(capacity), every: every}
}

// add counts item n times in both — through AddBytes when n is 1 and raw is
// set — and checks that a takeover evicted the same victim.
func (p *ssPair) add(item string, n uint64, raw bool) {
	p.t.Helper()
	_, tracked := p.got.Count(item)
	takeover := !tracked && p.got.Len() == p.got.capacity
	evictions := len(p.ref.victims)
	if raw && n == 1 {
		buf := []byte(item)
		p.got.AddBytes(buf)
		for i := range buf {
			buf[i] = '#' // the summary must own its copy
		}
		p.ref.AddBytes([]byte(item))
	} else {
		p.got.add([]byte(item), n)
		p.ref.AddN(item, n)
	}
	if takeover != (len(p.ref.victims) > evictions) {
		p.t.Fatalf("add %q: takeover in one summary only", item)
	}
	if takeover {
		// A takeover evicts one item: the reference's, unless the
		// summary still tracks it.
		p.evictions++
		v := p.ref.victims[evictions]
		if _, ok := p.got.Count(v); ok {
			p.t.Fatalf("add %q evicted another item than the reference's %q", item, v)
		}
	}
	if p.ops++; p.ops%p.every == 0 {
		p.check("add " + item)
	}
}

// check compares everything a summary shows.
func (p *ssPair) check(ctx string) {
	p.t.Helper()
	if p.got.Len() != p.ref.Len() || p.got.TotalCount() != p.ref.TotalCount() {
		p.t.Fatalf("%s: len %d total %d, reference len %d total %d", ctx, p.got.Len(), p.got.TotalCount(), p.ref.Len(), p.ref.TotalCount())
	}
	if got, want := p.got.Top(p.got.Len()), p.ref.Top(p.ref.Len()); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("%s: entries\n got %v\nwant %v", ctx, got, want)
	}
	if got, want := ssBytes(p.got), p.ref.AppendBinary(nil); !bytes.Equal(got, want) {
		p.t.Fatalf("%s: serialized\n got %x\nwant %x", ctx, got, want)
	}
	if got, want := p.got.minInheritance(), p.ref.minInheritance(); got != want {
		p.t.Fatalf("%s: min inheritance %d, reference %d", ctx, got, want)
	}
}

// recode replaces both summaries by decode(encode).
func (p *ssPair) recode() {
	p.t.Helper()
	enc := ssBytes(p.got)
	got, n, err := ssFrom(enc, p.got.capacity)
	if err != nil || n != len(enc) {
		p.t.Fatalf("decode: n=%d of %d, err=%v", n, len(enc), err)
	}
	ref, _, err := decodeRefSpaceSaving(enc)
	if err != nil {
		p.t.Fatal(err)
	}
	p.got, p.ref = got, ref
	p.check("decode")
}

func (p *ssPair) merge(o *ssPair) {
	p.t.Helper()
	p.got.Merge(o.got)
	p.ref.Merge(o.ref)
	p.check("merge")
	o.check("merge source")
}

// TestSpaceSavingMatchesReference drives the flat summary and the
// map-based one it replaced over the stream shapes that stress different
// parts of it, through Merge and through Decode → keep adding: same
// entries, same victim at every takeover, same bytes.
func TestSpaceSavingMatchesReference(t *testing.T) {
	streams := map[string]func(rng *rand.Rand, capacity, i int) string{
		"zipfian": func(rng *rand.Rand, capacity, _ int) string {
			return fmt.Sprintf("user-%d", int(rng.ExpFloat64()*float64(capacity)))
		},
		// Decimal numbers from the empty item up: shorter than a slot, so
		// the victim is mostly decided by zero-padded prefixes.
		"uniform": func(rng *rand.Rand, capacity, _ int) string {
			return strings.TrimLeft(fmt.Sprint(rng.Intn(4*capacity)), "0")
		},
		// Every addition at capacity is a takeover, with the whole summary
		// tied at the minimum time and again; items grow, so slots are
		// abandoned and the store compacted.
		"all-distinct": func(_ *rand.Rand, _, i int) string { return strings.Repeat("d", i%37) + fmt.Sprint(i) },
		"one-item-flood": func(rng *rand.Rand, capacity, i int) string {
			if i%(3*capacity) < capacity {
				return fmt.Sprint("other", i)
			}
			return "flood"
		},
	}
	for name, next := range streams {
		for _, capacity := range []int{1, 2, 7, 80, 1000} {
			rng := rand.New(rand.NewSource(int64(capacity)))
			p, q := newSSPair(t, capacity), newSSPair(t, capacity)
			for i := 0; i < min(40*capacity, 10000)+200; i++ {
				n := uint64(1)
				if rng.Intn(5) == 0 {
					n = uint64(1 + rng.Intn(5)) // AddN
				}
				p.add(next(rng, capacity, i), n, i%2 == 0)
				if i%3 == 0 {
					q.add(next(rng, capacity, i+1), 1, true)
				}
				switch rng.Intn(200 * p.every) { // a recode or merge is compared too
				case 0:
					p.recode()
				case 1:
					p.merge(q)
				case 2:
					q.merge(p)
				}
			}
			if p.evictions == 0 {
				t.Errorf("%s/%d: the stream never evicted", name, capacity)
			}
		}
	}
}

// FuzzSpaceSavingMatchesReference reads its input as a program over two
// summary/reference pairs: additions of items of varying length, AddN,
// decode(encode) and merges either way.
func FuzzSpaceSavingMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 4, 7, 0, 0, 5, 8, 0, 0, 6})
	f.Add([]byte{1, 0, 1, 0, 2, 6, 9, 7, 0, 9, 0, 0, 3})
	f.Add([]byte{12, 4, 200, 4, 201, 0, 7, 5, 7, 8, 0, 9, 0, 7, 0, 0, 7})
	f.Add([]byte{1, 0, 7, 0, 252, 0, 9, 0, 250, 0, 251, 7, 0, 0, 252})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		capacity := 1 + int(prog[0])%64
		p, q := newSSPair(t, capacity), newSSPair(t, capacity)
		for prog = prog[1:]; len(prog) >= 2; prog = prog[2:] {
			op, arg := prog[0]%10, prog[1]
			item := strings.Repeat("k", int(arg)%23) + fmt.Sprint(arg%29)
			if arg >= 250 {
				item = "\x00\x00"[:arg%3] // the empty item, and items that are their own zero padding
			}
			switch op {
			case 0, 1, 2, 3:
				p.add(item, 1, op%2 == 0)
			case 4:
				p.add(item, uint64(1+arg%5), false)
			case 5, 6:
				q.add(item, 1, true)
			case 7:
				p.recode()
			case 8:
				p.merge(q)
			case 9:
				q.merge(p)
			}
		}
	})
}

// A summary that is built allocates nothing more: not for a tracked item,
// not for an untracked one, not for a takeover.
func TestSpaceSavingAddBytesZeroAllocs(t *testing.T) {
	s := MustSpaceSaving(80)
	rng := rand.New(rand.NewSource(2))
	zipf := rand.NewZipf(rng, 1.1, 1, 100000)
	items := make([][]byte, 4096)
	for i := range items {
		items[i] = []byte(fmt.Sprint(zipf.Uint64()))
	}
	for _, it := range items {
		s.AddBytes(it)
	}
	if s.Len() != s.capacity {
		t.Fatalf("warm-up tracked %d items of %d", s.Len(), s.capacity)
	}
	i, before := 0, s.Bytes()
	if n := testing.AllocsPerRun(2000, func() {
		s.AddBytes(items[i%len(items)])
		i++
	}); n != 0 {
		t.Errorf("AddBytes allocates %v times on a built summary", n)
	}
	if s.Bytes() != before {
		t.Errorf("a built summary grew from %d to %d bytes", before, s.Bytes())
	}
	if max := int64(80*(40+4+8+16) + 512); before > max {
		t.Errorf("a capacity-80 summary of short items holds %d bytes, want at most %d", before, max)
	}
}
