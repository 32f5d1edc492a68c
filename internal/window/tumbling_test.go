package window

import (
	"testing"
	"time"
)

// Tumbling windows are the manager's slide == size case. These tests hold
// that case to what the paper's windows promise — one window per event,
// watermark and lateness semantics, ordered closes — and pin the audit of
// ForceBefore's watermark rewrite (`bound > watermark − lateness` ⇒
// watermark = bound + lateness): once a window is force-closed, no later
// Observe or GetAll interleaving may re-open it or emit the same window
// start twice.

type counter struct{ n int }

func newTumbling(t *testing.T, size, lateness time.Duration) *SlidingManager[*counter] {
	t.Helper()
	m, err := NewSlidingManager(size, size, lateness, func(start, end int64) *counter { return &counter{} })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerValidation(t *testing.T) {
	mk := func(start, end int64) *counter { return &counter{} }
	if _, err := NewSlidingManager(0, 0, 0, mk); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := NewSlidingManager(time.Second, time.Second, -1, mk); err == nil {
		t.Error("negative lateness should fail")
	}
	if _, err := NewSlidingManager[*counter](time.Second, time.Second, 0, nil); err == nil {
		t.Error("nil constructor should fail")
	}
}

func TestTumblingOneWindowPerEvent(t *testing.T) {
	m := newTumbling(t, 10*time.Second, 0)
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
	// Events of one window share its state; the next window's first event
	// closes it (lateness 0).
	for _, ts := range []int64{1 * sec, 9 * sec} {
		for _, s := range m.GetAll(ts) {
			s.n++
		}
		if closed := m.Observe(ts); len(closed) != 0 {
			t.Errorf("premature close at %d: %v", ts, closed)
		}
	}
	m.GetAll(12 * sec)
	closed := m.Observe(12 * sec)
	if len(closed) != 1 || closed[0].Start != 0 || closed[0].End != 10*sec || closed[0].State.n != 2 {
		t.Fatalf("closed = %+v", closed)
	}
	if m.Open() != 1 || m.Opened() != 2 {
		t.Errorf("open = %d, opened = %d", m.Open(), m.Opened())
	}
}

func TestTumblingLatenessGrace(t *testing.T) {
	m := newTumbling(t, 10*time.Second, 5*time.Second)
	sec := int64(time.Second)
	m.GetAll(5 * sec)
	m.Observe(5 * sec)

	// Watermark 12s: window [0,10s) not closed yet (needs 10s+5s).
	m.GetAll(12 * sec)
	if closed := m.Observe(12 * sec); len(closed) != 0 {
		t.Errorf("closed too early: %v", closed)
	}
	// A late event within the grace period is accepted.
	if got := m.GetAll(8 * sec); len(got) != 1 {
		t.Error("in-grace late event rejected")
	}
	// Watermark 15s closes [0,10s); an event for it is then late.
	closed := m.Observe(15 * sec)
	if len(closed) != 1 || closed[0].Start != 0 {
		t.Errorf("closed = %v", closed)
	}
	if got := m.GetAll(7 * sec); len(got) != 0 || m.LateDrops() != 1 {
		t.Errorf("late event reached %d windows, LateDrops = %d", len(got), m.LateDrops())
	}
}

func TestTumblingCloseInOrderAndFlush(t *testing.T) {
	m := newTumbling(t, 10*time.Second, 0)
	sec := int64(time.Second)
	for _, ts := range []int64{35, 5, 25, 15} {
		for _, s := range m.GetAll(ts * sec) {
			s.n = int(ts)
		}
	}
	seen := 0
	m.Each(func(*counter) { seen++ })
	if seen != 4 {
		t.Errorf("Each visited %d of 4 open windows", seen)
	}
	closed := m.Observe(30 * sec)
	if len(closed) != 3 {
		t.Fatalf("closed %d windows", len(closed))
	}
	for i, c := range closed {
		if c.Start != int64(i)*10*sec {
			t.Errorf("closed[%d].Start = %d: out of order", i, c.Start)
		}
	}
	// An out-of-order observation does not regress the watermark.
	if closed := m.Observe(5 * sec); len(closed) != 0 || m.watermark != 30*sec {
		t.Errorf("stale Observe closed %v, watermark %d", closed, m.watermark)
	}
	rest := m.Flush()
	if len(rest) != 1 || rest[0].State.n != 35 || m.Open() != 0 {
		t.Fatalf("Flush = %+v, open %d", rest, m.Open())
	}
	if again := m.Flush(); len(again) != 0 {
		t.Errorf("second flush = %v", again)
	}
}

// TestForceBeforeTumblingInterleaving walks a deterministic interleaving
// of GetAll/Observe/ForceBefore and asserts every window start closes at
// most once and force-closed windows reject re-opening.
func TestForceBeforeTumblingInterleaving(t *testing.T) {
	m := newTumbling(t, time.Second, 2*time.Second)
	sec := func(s int64) int64 { return s * int64(time.Second) }
	closed := make(map[int64]int)
	record := func(cs []Closed[*counter]) {
		for _, c := range cs {
			closed[c.Start]++
		}
	}

	// Open windows [0s,1s) and [1s,2s); watermark via Observe at 1.5s
	// closes nothing (lateness 2s).
	if len(m.GetAll(sec(0)+1)) != 1 || len(m.GetAll(sec(1)+1)) != 1 {
		t.Fatal("windows 0 and 1 should open")
	}
	record(m.Observe(sec(1) + 500_000_000))

	// Force-close everything ending at or before 2s: both windows emit.
	record(m.ForceBefore(sec(2)))
	if closed[sec(0)] != 1 || closed[sec(1)] != 1 {
		t.Fatalf("expected both windows force-closed once, got %v", closed)
	}

	// A later event inside a force-closed window must be late, not
	// re-open it — the rewritten watermark (bound+lateness) guards this.
	if len(m.GetAll(sec(0)+2)) != 0 {
		t.Error("force-closed window re-opened by a late GetAll")
	}
	if got := m.LateDrops(); got != 1 {
		t.Errorf("late drops = %d, want 1", got)
	}

	// An Observe with an *older* event time than the rewritten watermark
	// must not regress it (or re-close anything).
	record(m.Observe(sec(1)))

	// New data beyond the forced bound still works normally.
	if len(m.GetAll(sec(5)+1)) != 1 {
		t.Error("fresh window beyond the forced bound should open")
	}
	record(m.Observe(sec(8)))

	// A second ForceBefore at an older bound is a no-op: nothing closes
	// twice, the watermark does not move backwards.
	record(m.ForceBefore(sec(2)))
	if closed[sec(5)] != 1 {
		t.Errorf("fresh window should close once via watermark, got %v", closed)
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
	m, err := NewSlidingManager(2*time.Second, time.Second, time.Second, func(start, end int64) *counter { return &counter{} })
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
	record(m.Observe(sec(1) + 1))

	// Force-close windows ending at or before 3s: starts 0s and 1s.
	record(m.ForceBefore(sec(3)))
	if closed[sec(0)] != 1 || closed[sec(1)] != 1 {
		t.Fatalf("expected starts 0s,1s force-closed once, got %v", closed)
	}

	// A late event at 1.5s is covered by exactly the two closed windows:
	// GetAll must return none and count one late drop, not resurrect them.
	if got := len(m.GetAll(sec(1) + 500_000_000)); got != 0 {
		t.Errorf("late event re-opened %d force-closed windows", got)
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

	// Older Observe must not re-close; advancing far must close each
	// remaining start exactly once.
	record(m.Observe(sec(2)))
	record(m.Observe(sec(10)))
	for start, n := range closed {
		if n != 1 {
			t.Errorf("window %d closed %d times", start, n)
		}
	}
	if m.Open() != 0 {
		t.Errorf("%d windows left open after watermark passed all", m.Open())
	}
}

// TestForceBeforeWatermarkNeverRegresses checks the rewrite rule
// directly: alternating Observe and ForceBefore in any magnitude order
// keeps the effective close bound (watermark − lateness) monotone.
func TestForceBeforeWatermarkNeverRegresses(t *testing.T) {
	m := newTumbling(t, time.Second, 3*time.Second)
	sec := func(s int64) int64 { return s * int64(time.Second) }
	steps := []struct {
		force bool
		ts    int64
	}{
		{false, sec(5)}, {true, sec(1)}, {true, sec(8)}, {false, sec(6)},
		{true, sec(4)}, {false, sec(20)}, {true, sec(2)},
	}
	prev := int64(-1 << 62)
	for i, s := range steps {
		if s.force {
			m.ForceBefore(s.ts)
		} else {
			m.Observe(s.ts)
		}
		if b := m.watermark - m.lateness; b < prev {
			t.Fatalf("step %d (%+v): close bound regressed %d -> %d", i, s, prev, b)
		} else {
			prev = b
		}
	}
}
