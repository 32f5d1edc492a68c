package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestNewSpaceSavingValidation(t *testing.T) {
	if _, err := NewSpaceSaving(0); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := NewSpaceSaving(-1); err == nil {
		t.Error("negative capacity should fail")
	}
	s, err := NewSpaceSaving(8)
	if err != nil || s.Capacity() != 8 {
		t.Fatalf("NewSpaceSaving: %v", err)
	}
}

func TestMustSpaceSavingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSpaceSaving(0) should panic")
		}
	}()
	MustSpaceSaving(0)
}

func TestSpaceSavingExactWhenUnderCapacity(t *testing.T) {
	s := MustSpaceSaving(10)
	truth := map[string]uint64{"a": 5, "b": 3, "c": 7, "d": 1}
	for item, n := range truth {
		for i := uint64(0); i < n; i++ {
			s.Add(item)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	for item, n := range truth {
		got, ok := s.Count(item)
		if !ok || got != n {
			t.Errorf("Count(%s) = %d, %v; want %d", item, got, ok, n)
		}
	}
	top := s.Top(2)
	if len(top) != 2 || top[0].Item != "c" || top[1].Item != "a" {
		t.Errorf("Top(2) = %v", top)
	}
	if top[0].Err != 0 {
		t.Errorf("under capacity, Err should be 0, got %d", top[0].Err)
	}
	if _, ok := s.Count("zzz"); ok {
		t.Error("untracked item should be not-ok")
	}
}

func TestSpaceSavingOverestimateInvariant(t *testing.T) {
	// count(x) is always >= trueCount(x) and <= trueCount(x) + err(x).
	const capacity = 20
	s := MustSpaceSaving(capacity)
	truth := make(map[string]uint64)
	rng := rand.New(rand.NewSource(3))
	// Zipf-ish: item i chosen proportional to 1/(i+1).
	zipf := rand.NewZipf(rng, 1.3, 1, 499)
	for i := 0; i < 50000; i++ {
		item := fmt.Sprintf("it-%d", zipf.Uint64())
		truth[item]++
		s.Add(item)
	}
	for _, e := range s.Top(s.Len()) {
		trueCount := truth[e.Item]
		if e.Count < trueCount {
			t.Errorf("%s: estimate %d below true %d", e.Item, e.Count, trueCount)
		}
		if e.Count > trueCount+e.Err {
			t.Errorf("%s: estimate %d exceeds true %d + err %d", e.Item, e.Count, trueCount, e.Err)
		}
	}
}

func TestSpaceSavingHeavyHittersSurvive(t *testing.T) {
	// Items with true count > N/capacity are guaranteed tracked.
	const capacity = 50
	s := MustSpaceSaving(capacity)
	n := 0
	add := func(item string, c int) {
		for i := 0; i < c; i++ {
			s.Add(item)
			n++
		}
	}
	// Heavy items interleaved with a long noise tail.
	for round := 0; round < 100; round++ {
		add("heavy-A", 30)
		add("heavy-B", 20)
		for i := 0; i < 40; i++ {
			add(fmt.Sprintf("noise-%d-%d", round, i), 1)
		}
	}
	threshold := uint64(n / capacity)
	for _, heavy := range []string{"heavy-A", "heavy-B"} {
		c, ok := s.Count(heavy)
		if !ok {
			t.Errorf("%s (true count > N/capacity=%d) evicted", heavy, threshold)
		} else if c < 2000 {
			t.Errorf("%s count %d below true count", heavy, c)
		}
	}
	top := s.Top(2)
	if top[0].Item != "heavy-A" || top[1].Item != "heavy-B" {
		t.Errorf("Top(2) = %v", top)
	}
}

// TestSpaceSavingZipfTopKPrecision is TOP_K's accuracy claim (§3.2): on a
// Zipf(1.2) stream, a summary of 8k counters reports at least 80% of the
// true top k, and counts the true positives within 20%.
func TestSpaceSavingZipfTopKPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(9606))
	zipf := rand.NewZipf(rng, 1.2, 1, 100000)
	stream := make([]string, 200000)
	truth := make(map[string]uint64)
	for i := range stream {
		stream[i] = fmt.Sprintf("item-%d", zipf.Uint64())
		truth[stream[i]]++
	}
	ranked := make([]string, 0, len(truth))
	for it := range truth {
		ranked = append(ranked, it)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if truth[ranked[i]] != truth[ranked[j]] {
			return truth[ranked[i]] > truth[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	for _, k := range []int{5, 10, 50} {
		s := MustSpaceSaving(8 * k)
		for _, it := range stream {
			s.Add(it)
		}
		trueTop := make(map[string]bool, k)
		for _, it := range ranked[:k] {
			trueTop[it] = true
		}
		hits := 0
		for _, e := range s.Top(k) {
			if !trueTop[e.Item] {
				continue
			}
			hits++
			if n := truth[e.Item]; float64(e.Count-n) > 0.2*float64(n) {
				t.Errorf("TOP_%d: %s counted %d, true %d", k, e.Item, e.Count, n)
			}
		}
		if precision := float64(hits) / float64(k); precision < 0.8 {
			t.Errorf("TOP_%d precision %.2f, want >= 0.8", k, precision)
		}
	}
}

func TestSpaceSavingAddN(t *testing.T) {
	s := MustSpaceSaving(4)
	s.AddN("x", 100)
	s.AddN("x", 0) // no-op
	if c, _ := s.Count("x"); c != 100 {
		t.Errorf("Count(x) = %d", c)
	}
	if s.TotalCount() != 100 {
		t.Errorf("TotalCount = %d", s.TotalCount())
	}
}

func TestSpaceSavingTopOrderDeterministic(t *testing.T) {
	s := MustSpaceSaving(10)
	s.AddN("b", 5)
	s.AddN("a", 5)
	s.AddN("c", 9)
	top := s.Top(10)
	if top[0].Item != "c" || top[1].Item != "a" || top[2].Item != "b" {
		t.Errorf("tie-break order wrong: %v", top)
	}
}

func TestSpaceSavingMerge(t *testing.T) {
	a, b := MustSpaceSaving(10), MustSpaceSaving(10)
	a.AddN("x", 50)
	a.AddN("y", 10)
	b.AddN("x", 25)
	b.AddN("z", 40)
	a.Merge(b)
	if c, _ := a.Count("x"); c != 75 {
		t.Errorf("merged x = %d, want 75", c)
	}
	if c, _ := a.Count("z"); c != 40 {
		t.Errorf("merged z = %d, want 40", c)
	}
	a.Merge(nil) // no-op
	if c, _ := a.Count("y"); c != 10 {
		t.Errorf("y disturbed by nil merge: %d", c)
	}
}

func TestSpaceSavingMergeOverCapacity(t *testing.T) {
	a, b := MustSpaceSaving(3), MustSpaceSaving(3)
	a.AddN("a1", 100)
	a.AddN("a2", 90)
	a.AddN("a3", 1)
	b.AddN("b1", 80)
	b.AddN("b2", 70)
	a.Merge(b)
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (capacity)", a.Len())
	}
	// The heavy incumbents survive the merge.
	for _, item := range []string{"a1", "a2"} {
		if _, ok := a.Count(item); !ok {
			t.Errorf("heavy item %s evicted by merge", item)
		}
	}
	// The third slot holds one of the merged-in items (whichever survived
	// the capacity fight) with a count at least covering its own weight.
	c1, ok1 := a.Count("b1")
	c2, ok2 := a.Count("b2")
	if !ok1 && !ok2 {
		t.Fatal("neither merged-in item tracked after merge")
	}
	if ok1 && c1 < 80 {
		t.Errorf("b1 count %d below its true 80", c1)
	}
	if ok2 && c2 < 70 {
		t.Errorf("b2 count %d below its true 70", c2)
	}
}

func TestSpaceSavingMergeInvariantQuick(t *testing.T) {
	// Property: after merging two independently built summaries, every
	// tracked count is >= the item's true combined count... only guaranteed
	// for items still tracked; check the overestimate bound instead.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := make(map[string]uint64)
		a, b := MustSpaceSaving(8), MustSpaceSaving(8)
		for i := 0; i < 500; i++ {
			item := fmt.Sprintf("i%d", rng.Intn(30))
			truth[item]++
			if rng.Intn(2) == 0 {
				a.Add(item)
			} else {
				b.Add(item)
			}
		}
		a.Merge(b)
		for _, e := range a.Top(a.Len()) {
			if e.Count < truth[e.Item] && e.Count+e.Err < truth[e.Item] {
				return false
			}
			if e.Count > truth[e.Item]+e.Err {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSpaceSavingAdd adds one item per iteration through AddBytes, at
// the capacity top_k(_, 10) constructs (max(8k, 64) = 80) and at 1000, over
// three streams: zipfian users (most additions find their item tracked),
// uniform over four times the capacity (three in four are takeovers of one
// of a few tied minima) and all-distinct (every addition is a takeover).
// The file uses only the exported API, so it runs against the map-based
// summary of an older checkout as it stands.
func BenchmarkSpaceSavingAdd(b *testing.B) {
	for _, capacity := range []int{80, 1000} {
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.2, 1, 100000)
		zipfian, uniform := make([][]byte, 4096), make([][]byte, 4096)
		for i := range zipfian {
			zipfian[i] = []byte(fmt.Sprintf("user-%d", zipf.Uint64()))
			uniform[i] = []byte(fmt.Sprintf("user-%d", rng.Intn(4*capacity)))
		}
		for _, stream := range []struct {
			name  string
			items [][]byte
		}{{"zipfian", zipfian}, {"uniform", uniform}, {"all-distinct", nil}} {
			b.Run(fmt.Sprintf("cap=%d/%s", capacity, stream.name), func(b *testing.B) {
				s := MustSpaceSaving(capacity)
				buf := append(make([]byte, 0, 32), "user-"...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if stream.items != nil {
						s.AddBytes(stream.items[i&4095])
					} else {
						s.AddBytes(strconv.AppendUint(buf[:5], uint64(i), 10))
					}
				}
			})
		}
	}
}

// AddBytes must behave exactly like Add of the same bytes as a string —
// same counters, same eviction victims — and must not keep the caller's
// buffer, which is reused for the next item.
func TestSpaceSavingAddBytesMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := MustSpaceSaving(8), MustSpaceSaving(8)
	buf := make([]byte, 0, 16)
	for i := 0; i < 2000; i++ {
		item := fmt.Sprintf("item-%d", rng.Intn(5)*rng.Intn(5)+rng.Intn(3))
		a.Add(item)
		buf = append(buf[:0], item...)
		b.AddBytes(buf)
		for j := range buf {
			buf[j] = 'x' // the sketch must own its item by now
		}
	}
	if got, want := fmt.Sprint(b.Top(8)), fmt.Sprint(a.Top(8)); got != want {
		t.Fatalf("AddBytes summary %v, Add summary %v", got, want)
	}
	if !bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil)) {
		t.Fatal("serialized summaries differ")
	}
}
