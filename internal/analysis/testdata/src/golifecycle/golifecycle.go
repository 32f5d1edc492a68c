// Package golifecycle is golden-test input for the golifecycle
// analyzer: goroutines in a long-lived component must have a reachable
// stop path: WaitGroup.Done, a channel receive, or an exitable event
// loop.
//
//scrub:longlived
package golifecycle

import "sync"

// Service is the long-lived component under test.
type Service struct {
	wg   sync.WaitGroup
	stop chan struct{}
	work chan int
	out  []int
}

// --- violations ---

func (s *Service) spinForever() {
	n := 0
	go func() { // want `goroutine loops forever with no stop path`
		for {
			n++
		}
	}()
}

// A labeled break that names an inner loop leaves only that loop.
func (s *Service) innerBreak() {
	go func() { // want `goroutine loops forever with no stop path`
		for {
		inner:
			for {
				break inner
			}
		}
	}()
}

// A goto whose target is inside the loop does not leave it.
func (s *Service) innerGoto() {
	n := 0
	go func() { // want `goroutine loops forever with no stop path`
		for {
			goto again
		again:
			n++
		}
	}()
}

func (s *Service) untracked() {
	go func() { // want `goroutine has no tracked lifecycle`
		s.out = append(s.out, 1)
	}()
}

func (s *Service) dynamic(fn func()) {
	go fn() // want `cannot statically resolve the function this goroutine runs`
}

// --- accepted shapes ---

// WaitGroup-tracked shutdown, the server/coord idiom.
func (s *Service) tracked() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.out = append(s.out, 2)
	}()
}

// A select with a stop-channel receive.
func (s *Service) selectLoop() {
	go func() {
		for {
			select {
			case v := <-s.work:
				s.out = append(s.out, v)
			case <-s.stop:
				return
			}
		}
	}()
}

// Ranging over a channel ends when the channel is closed.
func (s *Service) drain() {
	go func() {
		for v := range s.work {
			s.out = append(s.out, v)
		}
	}()
}

// An event loop whose body can exit: the connection-serve shape.
func (s *Service) serve(next func() (int, bool)) {
	go func() {
		for {
			v, ok := next()
			if !ok {
				return
			}
			s.out = append(s.out, v)
		}
	}()
}

// A labeled break that names the loop itself leaves it, from a nested
// loop too.
func (s *Service) outerBreak(next func() bool) {
	go func() {
	outer:
		for {
			for next() {
				break outer
			}
		}
	}()
}

// A statically-named method body is resolved and scanned like a literal,
// including through a thin wrapper.
func (s *Service) spawnNamed() {
	go s.runLoop()
	go s.runViaWrapper()
}

func (s *Service) runLoop() {
	for range s.work {
	}
}

func (s *Service) runViaWrapper() { s.runLoop() }
