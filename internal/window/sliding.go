// Package window implements the event-time windows Scrub queries
// aggregate over. The paper's windows tumble (§3.2: "currently, only
// tumbling windows are supported, but Scrub can easily be extended to
// allow sliding windows"); this is that extension, and the one manager
// there is: a sliding window of size S and slide s assigns each event to
// the S/s windows whose span covers it, and tumbling is the special case
// s == S.
//
// The manager keeps no watermark of its own: its owner tells it the bound
// to close before (ScrubCentral's merger computes it, in one place, from
// the query watermark and the grace the plan allows stragglers) and the
// manager remembers the highest bound it was given. Events whose every
// covering window ends at or before that bound are counted and dropped —
// accuracy traded for bounded state, the paper's standing rule.
package window

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// SlidingAssigner maps event times to the set of covering window starts.
type SlidingAssigner struct {
	size  int64
	slide int64
}

// NewSlidingAssigner validates and builds an assigner. The slide must be
// positive, no larger than the size, and divide it evenly (so windows
// align and results are deterministic).
func NewSlidingAssigner(size, slide time.Duration) (SlidingAssigner, error) {
	if size <= 0 {
		return SlidingAssigner{}, fmt.Errorf("window: size must be positive, got %v", size)
	}
	if slide <= 0 || slide > size {
		return SlidingAssigner{}, fmt.Errorf("window: slide must be in (0, size], got %v for size %v", slide, size)
	}
	if int64(size)%int64(slide) != 0 {
		return SlidingAssigner{}, fmt.Errorf("window: slide %v must divide size %v", slide, size)
	}
	return SlidingAssigner{size: int64(size), slide: int64(slide)}, nil
}

// Starts appends the start times of every window containing ts, in
// ascending order.
func (a SlidingAssigner) Starts(ts int64, dst []int64) []int64 {
	// Latest window start covering ts.
	latest := ts - (ts % a.slide)
	if ts%a.slide < 0 { // floor for negative timestamps
		latest -= a.slide
	}
	earliest := latest - a.size + a.slide
	for s := earliest; s <= latest; s += a.slide {
		dst = append(dst, s)
	}
	return dst
}

// Closed is a window a close bound has passed, with its accumulated state.
type Closed[S any] struct {
	Start int64 // unix nanos, inclusive
	End   int64 // unix nanos, exclusive
	State S
}

// SlidingManager tracks open windows of per-window state S, closing them
// when its owner says so; each event contributes to every covering
// window. It is not safe for concurrent use; ScrubCentral drives one per
// query under the shard kernel's lock.
type SlidingManager[S any] struct {
	assigner  SlidingAssigner
	newState  func(start, end int64) S
	open      map[int64]S
	closed    int64 // highest bound closed before; windows ending at or before it are gone
	lateDrops uint64
	scratch   []int64
	states    []S // GetAll's result buffer, reused across calls
}

// NewSlidingManager builds a manager. newState allocates the accumulator
// for a window when its first event arrives.
func NewSlidingManager[S any](size, slide time.Duration, newState func(start, end int64) S) (*SlidingManager[S], error) {
	a, err := NewSlidingAssigner(size, slide)
	if err != nil {
		return nil, err
	}
	if newState == nil {
		return nil, fmt.Errorf("window: nil state constructor")
	}
	return &SlidingManager[S]{
		assigner: a,
		newState: newState,
		open:     make(map[int64]S),
		closed:   math.MinInt64,
	}, nil
}

// GetAll returns the states of every window covering ts, creating them as
// needed. Windows ending at or before the closed bound are skipped, and
// the event is counted once in LateDrops when every covering window is
// gone. The returned slice is the manager's own buffer — ScrubCentral
// calls GetAll once per tuple — and is overwritten by the next call.
func (m *SlidingManager[S]) GetAll(ts int64) []S {
	m.scratch = m.assigner.Starts(ts, m.scratch[:0])
	out := m.states[:0]
	for _, start := range m.scratch {
		if s, ok := m.open[start]; ok {
			out = append(out, s)
			continue
		}
		if start+m.assigner.size <= m.closed {
			continue // this window already closed
		}
		s := m.newState(start, start+m.assigner.size)
		m.open[start] = s
		out = append(out, s)
	}
	if len(out) == 0 {
		m.lateDrops++
	}
	m.states = out
	return out
}

// ForceBefore closes every window ending at or before bound and returns
// them in start order. The bound is remembered when it is the highest so
// far: events older than it are late from then on, so a closed window is
// never re-opened and a lower bound afterwards closes nothing twice.
func (m *SlidingManager[S]) ForceBefore(bound int64) []Closed[S] {
	m.closed = max(m.closed, bound)
	var out []Closed[S]
	for start, s := range m.open {
		end := start + m.assigner.size
		if end <= bound {
			out = append(out, Closed[S]{Start: start, End: end, State: s})
			delete(m.open, start)
		}
	}
	if len(out) > 0 {
		// Do not let the result buffer pin a closed window's state.
		clear(m.states)
		m.states = m.states[:0]
	}
	slices.SortFunc(out, func(a, b Closed[S]) int { return cmp.Compare(a.Start, b.Start) })
	return out
}

// Flush closes every open window; whatever arrives afterwards is late.
func (m *SlidingManager[S]) Flush() []Closed[S] {
	return m.ForceBefore(int64(1)<<62 - 1)
}

// LateDrops counts events whose every covering window had closed.
func (m *SlidingManager[S]) LateDrops() uint64 { return m.lateDrops }
