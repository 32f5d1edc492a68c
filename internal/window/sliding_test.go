package window

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestSlidingAssignerValidation(t *testing.T) {
	cases := []struct{ size, slide time.Duration }{
		{0, time.Second},
		{time.Second, 0},
		{time.Second, -time.Second},
		{time.Second, 2 * time.Second},      // slide > size
		{10 * time.Second, 3 * time.Second}, // does not divide
	}
	for _, c := range cases {
		if _, err := NewSlidingAssigner(c.size, c.slide); err == nil {
			t.Errorf("NewSlidingAssigner(%v, %v) should fail", c.size, c.slide)
		}
	}
	a, err := NewSlidingAssigner(10*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.size != int64(10*time.Second) || a.slide != int64(5*time.Second) {
		t.Errorf("assigner = %+v", a)
	}
}

func TestSlidingAssignerStarts(t *testing.T) {
	a, _ := NewSlidingAssigner(10*time.Second, 5*time.Second)
	sec := int64(time.Second)
	cases := []struct {
		ts     int64
		starts []int64
	}{
		{0, []int64{-5 * sec, 0}},
		{3 * sec, []int64{-5 * sec, 0}},
		{5 * sec, []int64{0, 5 * sec}},
		{7 * sec, []int64{0, 5 * sec}},
		{12 * sec, []int64{5 * sec, 10 * sec}},
		{-1, []int64{-10 * sec, -5 * sec}},
		{-6 * sec, []int64{-15 * sec, -10 * sec}},
	}
	for _, c := range cases {
		got := a.Starts(c.ts, nil)
		if !reflect.DeepEqual(got, c.starts) {
			t.Errorf("Starts(%d) = %v, want %v", c.ts, got, c.starts)
		}
	}
	// Tumbling special case: the one window containing ts, aligned to the
	// size, for negative timestamps too.
	tum, _ := NewSlidingAssigner(7*time.Millisecond, 7*time.Millisecond)
	f := func(ts int64) bool {
		got := tum.Starts(ts, nil)
		return len(got) == 1 && got[0] <= ts && ts < got[0]+tum.size && got[0]%tum.size == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlidingAssignerCoverageInvariant(t *testing.T) {
	// Every returned window covers ts; there are exactly Count of them.
	a, _ := NewSlidingAssigner(12*time.Second, 4*time.Second)
	f := func(ts int64) bool {
		starts := a.Starts(ts, nil)
		if len(starts) != int(a.size/a.slide) {
			return false
		}
		for i, s := range starts {
			if !(s <= ts && ts < s+a.size) {
				return false
			}
			if s%a.slide != 0 {
				return false
			}
			if i > 0 && s != starts[i-1]+a.slide {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlidingManagerBasicFlow(t *testing.T) {
	m, err := NewSlidingManager(10*time.Second, 5*time.Second,
		func(start, end int64) *counter { return &counter{} })
	if err != nil {
		t.Fatal(err)
	}
	sec := int64(time.Second)
	// Event at 7s lands in windows [0,10) and [5,15).
	states := m.GetAll(7 * sec)
	if len(states) != 2 {
		t.Fatalf("GetAll returned %d states", len(states))
	}
	for _, s := range states {
		s.n++
	}
	if len(m.open) != 2 {
		t.Errorf("open = %d", len(m.open))
	}
	// Event at 12s: windows [5,15) and [10,20); [5,15) is shared.
	states = m.GetAll(12 * sec)
	if len(states) != 2 {
		t.Fatalf("GetAll returned %d", len(states))
	}
	for _, s := range states {
		s.n++
	}
	closed := m.ForceBefore(12 * sec)
	if len(closed) != 1 || closed[0].Start != 0 {
		t.Fatalf("closed = %v", closed)
	}
	if closed[0].State.n != 1 {
		t.Errorf("window [0,10) count = %d, want 1", closed[0].State.n)
	}
	// Flush the rest: [5,15) saw both events; [10,20) saw one.
	rest := m.Flush()
	if len(rest) != 2 {
		t.Fatalf("flush closed %d", len(rest))
	}
	if rest[0].Start != 5*sec || rest[0].State.n != 2 {
		t.Errorf("[5,15) = %+v n=%d", rest[0], rest[0].State.n)
	}
	if rest[1].Start != 10*sec || rest[1].State.n != 1 {
		t.Errorf("[10,20) = %+v n=%d", rest[1], rest[1].State.n)
	}
}

func TestSlidingManagerLateDrops(t *testing.T) {
	m, _ := NewSlidingManager(10*time.Second, 5*time.Second,
		func(start, end int64) *counter { return &counter{} })
	sec := int64(time.Second)
	m.GetAll(7 * sec)
	m.ForceBefore(40 * sec) // closes everything through [30,40)
	if got := m.GetAll(2 * sec); len(got) != 0 {
		t.Errorf("late event opened %d windows", len(got))
	}
	if m.LateDrops() != 1 {
		t.Errorf("late drops = %d", m.LateDrops())
	}
	// Partially late: with everything before 40s closed, an event at 36s
	// fits [35,45) but not [30,40).
	if got := m.GetAll(36 * sec); len(got) != 1 {
		t.Errorf("partially-late event got %d windows, want 1", len(got))
	}
}

func TestSlidingManagerForceBefore(t *testing.T) {
	m, _ := NewSlidingManager(10*time.Second, 5*time.Second,
		func(start, end int64) *counter { return &counter{} })
	sec := int64(time.Second)
	m.GetAll(7 * sec) // opens [0,10) and [5,15)
	closed := m.ForceBefore(12 * sec)
	if len(closed) != 1 || closed[0].Start != 0 {
		t.Errorf("forced = %v", closed)
	}
	if len(m.open) != 1 {
		t.Errorf("open = %d", len(m.open))
	}
}

// GetAll runs once per tuple at ScrubCentral: its result buffer is the
// manager's, so the steady state allocates nothing.
func TestSlidingGetAllReusesBuffer(t *testing.T) {
	m, err := NewSlidingManager(10*time.Second, 5*time.Second, func(start, end int64) *int { return new(int) })
	if err != nil {
		t.Fatal(err)
	}
	sec := int64(time.Second)
	m.GetAll(7 * sec)
	if n := testing.AllocsPerRun(100, func() {
		if got := m.GetAll(8 * sec); len(got) != 2 {
			t.Fatalf("GetAll returned %d states", len(got))
		}
	}); n != 0 {
		t.Fatalf("GetAll over open windows allocates %v times per call", n)
	}
	// Closing must not leave the buffer pinning the closed states.
	m.ForceBefore(100 * sec)
	if stale := m.states[:2]; len(m.states) != 0 || stale[0] != nil || stale[1] != nil {
		t.Fatalf("result buffer still references closed windows: %v", stale)
	}
}
