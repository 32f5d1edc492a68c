// Package window implements the event-time windows Scrub queries
// aggregate over. The paper's windows tumble (§3.2: "currently, only
// tumbling windows are supported, but Scrub can easily be extended to
// allow sliding windows"); this is that extension, and the one manager
// there is: a sliding window of size S and slide s assigns each event to
// the S/s windows whose span covers it, and tumbling is the special case
// s == S.
//
// Windows close on a watermark: the maximum event time seen, minus an
// allowed lateness. Events arriving after their window closed are counted
// and dropped — accuracy traded for bounded state, the paper's standing
// rule.
package window

import (
	"cmp"
	"fmt"
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

// Closed is a window the watermark has passed, carrying its accumulated
// state.
type Closed[S any] struct {
	Start int64 // unix nanos, inclusive
	End   int64 // unix nanos, exclusive
	State S
}

// SlidingManager tracks open windows of per-window state S, closing them
// as the watermark advances; each event contributes to every covering
// window. It is not safe for concurrent use; ScrubCentral drives one per
// query under the engine's lock.
type SlidingManager[S any] struct {
	assigner  SlidingAssigner
	lateness  int64
	newState  func(start, end int64) S
	open      map[int64]S
	watermark int64 // max event time observed
	hasMark   bool
	lateDrops uint64
	opened    uint64
	scratch   []int64
	states    []S // GetAll's result buffer, reused across calls
}

// NewSlidingManager builds a manager. newState allocates the accumulator
// for a window when its first event arrives; lateness is how far behind
// the max observed event time an event may be and still be accepted.
func NewSlidingManager[S any](size, slide, lateness time.Duration, newState func(start, end int64) S) (*SlidingManager[S], error) {
	a, err := NewSlidingAssigner(size, slide)
	if err != nil {
		return nil, err
	}
	if lateness < 0 {
		return nil, fmt.Errorf("window: lateness must be non-negative, got %v", lateness)
	}
	if newState == nil {
		return nil, fmt.Errorf("window: nil state constructor")
	}
	return &SlidingManager[S]{
		assigner: a,
		lateness: int64(lateness),
		newState: newState,
		open:     make(map[int64]S),
	}, nil
}

// GetAll returns the states of every window covering ts, creating them as
// needed. Windows already closed by the watermark are skipped and counted
// once per event in LateDrops when every covering window is gone. The
// returned slice is the manager's own buffer — ScrubCentral calls GetAll
// once per tuple — and is overwritten by the next call.
func (m *SlidingManager[S]) GetAll(ts int64) []S {
	m.scratch = m.assigner.Starts(ts, m.scratch[:0])
	out := m.states[:0]
	for _, start := range m.scratch {
		if s, ok := m.open[start]; ok {
			out = append(out, s)
			continue
		}
		if m.hasMark && start+m.assigner.size+m.lateness <= m.watermark {
			continue // this window already closed
		}
		s := m.newState(start, start+m.assigner.size)
		m.open[start] = s
		m.opened++
		out = append(out, s)
	}
	if len(out) == 0 {
		m.lateDrops++
	}
	m.states = out
	return out
}

// Observe advances the watermark and returns closed windows in start
// order.
func (m *SlidingManager[S]) Observe(ts int64) []Closed[S] {
	if !m.hasMark || ts > m.watermark {
		m.watermark = ts
		m.hasMark = true
	}
	return m.closeBefore(m.watermark - m.lateness)
}

// ForceBefore closes every window ending at or before bound, regardless
// of the event-time watermark. ScrubCentral drives this from a wall-clock
// tick so that idle event streams still emit their windows — the tuples
// are near-real-time, so processing time bounds event time closely — and
// a cluster's merger drives its shards' windows with nothing else. The
// forced bound also acts as a watermark: events older than it are late by
// definition.
func (m *SlidingManager[S]) ForceBefore(bound int64) []Closed[S] {
	if !m.hasMark || bound > m.watermark-m.lateness {
		m.watermark = bound + m.lateness
		m.hasMark = true
	}
	return m.closeBefore(bound)
}

func (m *SlidingManager[S]) closeBefore(bound int64) []Closed[S] {
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

// Flush closes every open window.
func (m *SlidingManager[S]) Flush() []Closed[S] {
	return m.closeBefore(int64(1)<<62 - 1)
}

// Open returns the number of open windows.
func (m *SlidingManager[S]) Open() int { return len(m.open) }

// LateDrops counts events whose every covering window had closed.
func (m *SlidingManager[S]) LateDrops() uint64 { return m.lateDrops }

// Opened counts the windows GetAll has created so far: event-time
// progress, one step a slide.
func (m *SlidingManager[S]) Opened() uint64 { return m.opened }

// Each calls f with the state of every open window, in no particular
// order.
func (m *SlidingManager[S]) Each(f func(S)) {
	for _, s := range m.open {
		f(s)
	}
}
