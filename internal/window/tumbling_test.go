package window

import (
	"testing"
	"time"
)

// Tumbling windows are the manager's slide == size case. These tests hold
// that case to what the paper's windows promise — one window per event,
// ordered closes, events behind the closed bound dropped as late — and pin
// the closed bound itself: it only ever rises, so once a window is
// closed no later ForceBefore or GetAll interleaving may re-open it or
// emit the same window start twice. The bound a query closes at
// (watermark minus the plan's grace) is the merger's to compute;
// internal/central's TestLatenessGraceAtCentral and
// TestLateTuplesCounted pin that end to end.

type counter struct{ n int }

func newTumbling(t *testing.T, size time.Duration) *SlidingManager[*counter] {
	t.Helper()
	m, err := NewSlidingManager(size, size, func(start, end int64) *counter { return &counter{} })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerValidation(t *testing.T) {
	mk := func(start, end int64) *counter { return &counter{} }
	if _, err := NewSlidingManager(0, 0, mk); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := NewSlidingManager[*counter](time.Second, time.Second, nil); err == nil {
		t.Error("nil constructor should fail")
	}
}

func TestTumblingOneWindowPerEvent(t *testing.T) {
	m := newTumbling(t, 10*time.Second)
	sec := int64(time.Second)
	cases := []struct{ ts, start int64 }{
		{0, 0}, {1, 0}, {9 * sec, 0}, {10 * sec, 10 * sec}, {19*sec + 999, 10 * sec},
		{-1, -10 * sec}, {-10 * sec, -10 * sec}, {-11 * sec, -20 * sec},
	}
	for _, c := range cases {
		if got := m.assigner.Starts(c.ts, nil); len(got) != 1 || got[0] != c.start {
			t.Errorf("Starts(%d) = %v, want [%d]", c.ts, got, c.start)
		}
	}
	// Events of one window share its state; a bound inside the window
	// closes nothing, the first bound at its end closes it.
	for _, ts := range []int64{1 * sec, 9 * sec} {
		for _, s := range m.GetAll(ts) {
			s.n++
		}
		if closed := m.ForceBefore(ts); len(closed) != 0 {
			t.Errorf("premature close at %d: %v", ts, closed)
		}
	}
	m.GetAll(12 * sec)
	closed := m.ForceBefore(12 * sec)
	if len(closed) != 1 || closed[0].Start != 0 || closed[0].End != 10*sec || closed[0].State.n != 2 {
		t.Fatalf("closed = %+v", closed)
	}
	if len(m.open) != 1 {
		t.Errorf("open = %d", len(m.open))
	}
}

// TestTumblingClosedBoundGrace: a grace period for stragglers is a
// subtraction the caller does, as the merger does it — with 5s of grace
// the bound trails the newest event by 5s.
func TestTumblingClosedBoundGrace(t *testing.T) {
	m := newTumbling(t, 10*time.Second)
	sec := int64(time.Second)
	const grace = 5
	m.GetAll(5 * sec)
	m.ForceBefore((5 - grace) * sec)

	// Newest event 12s: window [0,10s) not closed yet (needs 10s+5s).
	m.GetAll(12 * sec)
	if closed := m.ForceBefore((12 - grace) * sec); len(closed) != 0 {
		t.Errorf("closed too early: %v", closed)
	}
	// A late event within the grace period is accepted.
	if got := m.GetAll(8 * sec); len(got) != 1 {
		t.Error("in-grace late event rejected")
	}
	// Newest event 15s closes [0,10s); an event for it is then late.
	closed := m.ForceBefore((15 - grace) * sec)
	if len(closed) != 1 || closed[0].Start != 0 {
		t.Errorf("closed = %v", closed)
	}
	if got := m.GetAll(7 * sec); len(got) != 0 || m.LateDrops() != 1 {
		t.Errorf("late event reached %d windows, LateDrops = %d", len(got), m.LateDrops())
	}
}

func TestTumblingCloseInOrderAndFlush(t *testing.T) {
	m := newTumbling(t, 10*time.Second)
	sec := int64(time.Second)
	for _, ts := range []int64{35, 5, 25, 15} {
		for _, s := range m.GetAll(ts * sec) {
			s.n = int(ts)
		}
	}
	closed := m.ForceBefore(30 * sec)
	if len(closed) != 3 {
		t.Fatalf("closed %d windows", len(closed))
	}
	for i, c := range closed {
		if c.Start != int64(i)*10*sec {
			t.Errorf("closed[%d].Start = %d: out of order", i, c.Start)
		}
	}
	// A lower bound afterwards does not bring the closed bound back down.
	if closed := m.ForceBefore(5 * sec); len(closed) != 0 || m.closed != 30*sec {
		t.Errorf("stale ForceBefore closed %v, bound %d", closed, m.closed)
	}
	rest := m.Flush()
	if len(rest) != 1 || rest[0].State.n != 35 || len(m.open) != 0 {
		t.Fatalf("Flush = %+v, open %d", rest, len(m.open))
	}
	if again := m.Flush(); len(again) != 0 {
		t.Errorf("second flush = %v", again)
	}
	// A flushed manager is closed for good: nothing re-opens.
	if got := m.GetAll(100 * sec); len(got) != 0 || m.LateDrops() != 1 {
		t.Errorf("event after Flush reached %d windows, LateDrops = %d", len(got), m.LateDrops())
	}
}

// TestForceBeforeTumblingInterleaving walks a deterministic interleaving
// of GetAll and rising and falling ForceBefore bounds and asserts every
// window start closes at most once and closed windows reject re-opening.
func TestForceBeforeTumblingInterleaving(t *testing.T) {
	m := newTumbling(t, time.Second)
	sec := func(s int64) int64 { return s * int64(time.Second) }
	closed := make(map[int64]int)
	record := func(cs []Closed[*counter]) {
		for _, c := range cs {
			closed[c.Start]++
		}
	}

	// Open windows [0s,1s) and [1s,2s); a bound still before their ends
	// closes nothing.
	if len(m.GetAll(sec(0)+1)) != 1 || len(m.GetAll(sec(1)+1)) != 1 {
		t.Fatal("windows 0 and 1 should open")
	}
	record(m.ForceBefore(sec(1) - 500_000_000))

	// Close everything ending at or before 2s: both windows emit.
	record(m.ForceBefore(sec(2)))
	if closed[sec(0)] != 1 || closed[sec(1)] != 1 {
		t.Fatalf("expected both windows closed once, got %v", closed)
	}

	// A later event inside a closed window must be late, not re-open it.
	if len(m.GetAll(sec(0)+2)) != 0 {
		t.Error("closed window re-opened by a late GetAll")
	}
	if got := m.LateDrops(); got != 1 {
		t.Errorf("late drops = %d, want 1", got)
	}

	// A lower bound than the remembered one must not bring it down (or
	// re-close anything).
	record(m.ForceBefore(sec(1)))
	if len(m.GetAll(sec(1)+2)) != 0 {
		t.Error("a stale bound re-opened a closed window")
	}

	// New data beyond the bound still works normally.
	if len(m.GetAll(sec(5)+1)) != 1 {
		t.Error("fresh window beyond the closed bound should open")
	}
	record(m.ForceBefore(sec(6)))

	// A second ForceBefore at an older bound is a no-op: nothing closes
	// twice.
	record(m.ForceBefore(sec(2)))
	if closed[sec(5)] != 1 {
		t.Errorf("fresh window should close once, got %v", closed)
	}
	for start, n := range closed {
		if n != 1 {
			t.Errorf("window %d closed %d times", start, n)
		}
	}
}

// TestForceBeforeSlidingInterleaving runs the same audit with slide <
// size, where each event belongs to several windows and re-opening would
// double-count the overlap.
func TestForceBeforeSlidingInterleaving(t *testing.T) {
	// size 2s, slide 1s: each event covered by two windows.
	m, err := NewSlidingManager(2*time.Second, time.Second, func(start, end int64) *counter { return &counter{} })
	if err != nil {
		t.Fatal(err)
	}
	sec := func(s int64) int64 { return s * int64(time.Second) }
	closed := make(map[int64]int)
	record := func(cs []Closed[*counter]) {
		for _, c := range cs {
			closed[c.Start]++
		}
	}

	if got := len(m.GetAll(sec(1) + 1)); got != 2 {
		t.Fatalf("event should open 2 covering windows, got %d", got)
	}
	record(m.ForceBefore(1))

	// Close windows ending at or before 3s: starts 0s and 1s.
	record(m.ForceBefore(sec(3)))
	if closed[sec(0)] != 1 || closed[sec(1)] != 1 {
		t.Fatalf("expected starts 0s,1s closed once, got %v", closed)
	}

	// A late event at 1.5s is covered by exactly the two closed windows:
	// GetAll must return none and count one late drop, not resurrect them.
	if got := len(m.GetAll(sec(1) + 500_000_000)); got != 0 {
		t.Errorf("late event re-opened %d closed windows", got)
	}
	if got := m.LateDrops(); got != 1 {
		t.Errorf("late drops = %d, want 1", got)
	}

	// An event at 2.5s is covered by starts 1s (closed) and 2s (open):
	// only the open window may accept it, and no late drop is counted.
	if got := len(m.GetAll(sec(2) + 500_000_000)); got != 1 {
		t.Errorf("partially-late event should reach exactly 1 window, got %d", got)
	}
	if got := m.LateDrops(); got != 1 {
		t.Errorf("late drops after partial = %d, want still 1", got)
	}

	// An older bound must not re-close; advancing far must close each
	// remaining start exactly once.
	record(m.ForceBefore(sec(1)))
	record(m.ForceBefore(sec(9)))
	for start, n := range closed {
		if n != 1 {
			t.Errorf("window %d closed %d times", start, n)
		}
	}
	if len(m.open) != 0 {
		t.Errorf("%d windows left open after the bound passed all", len(m.open))
	}
}

// TestClosedBoundNeverRegresses checks the rule directly: bounds in any
// magnitude order keep the closed bound monotone.
func TestClosedBoundNeverRegresses(t *testing.T) {
	m := newTumbling(t, time.Second)
	sec := func(s int64) int64 { return s * int64(time.Second) }
	prev := m.closed
	for i, b := range []int64{sec(2), sec(1), sec(8), sec(3), sec(4), sec(17), sec(2)} {
		m.ForceBefore(b)
		if m.closed < prev || m.closed < b {
			t.Fatalf("step %d (bound %d): closed bound %d -> %d", i, b, prev, m.closed)
		}
		prev = m.closed
	}
}
