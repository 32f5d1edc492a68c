package lockorder

import "sync"

// Loops holds the branch shapes of the walk: loops, switches, selects,
// their labels, and the two shapes it refuses to follow.
type Loops struct {
	mu sync.Mutex
	n  int
}

// A lock taken and released inside each iteration is clean.
func (l *Loops) sum(xs []int) {
	for _, x := range xs {
		l.mu.Lock()
		l.n += x
		l.mu.Unlock()
	}
}

// A break leaves the loop with the lock held.
func (l *Loops) firstPositive(xs []int) int {
	for _, x := range xs {
		l.mu.Lock()
		if x > 0 {
			break
		}
		l.mu.Unlock()
	}
	return l.n // want `returns while holding l.mu`
}

// A continue carries the lock into the next iteration, which takes it
// again, and out of the loop when the range ends.
func (l *Loops) skipPositive(xs []int) {
	for _, x := range xs {
		l.mu.Lock() // want `lock l.mu is already held on this path`
		if x > 0 {
			continue
		}
		l.mu.Unlock()
	}
} // want `function ends while holding l.mu`

// A lock never released in the body is taken again on the next pass.
func (l *Loops) countUp(limit int) {
	for i := 0; i < limit; i++ {
		l.mu.Lock() // want `lock l.mu is already held on this path`
		l.n++
	}
} // want `function ends while holding l.mu`

// A labeled continue from inside a switch reaches the outer loop.
func (l *Loops) skipRows(rows [][]int) {
Rows:
	for _, row := range rows {
		l.mu.Lock()
		for _, x := range row {
			switch {
			case x < 0:
				l.mu.Unlock()
				continue Rows
			}
			l.n += x
		}
		l.mu.Unlock()
	}
}

// A labeled break leaves both loops with the lock held.
func (l *Loops) findNegative(rows [][]int) {
Rows:
	for _, row := range rows {
		for _, x := range row {
			l.mu.Lock()
			if x < 0 {
				break Rows
			}
			l.mu.Unlock()
		}
	}
} // want `function ends while holding l.mu`

// A loop without a condition ends only by its return, which holds the
// lock; nothing falls out of it.
func (l *Loops) next(ch chan int) int {
	for {
		l.mu.Lock()
		if v := <-ch; v > 0 {
			return v // want `returns while holding l.mu`
		}
		l.mu.Unlock()
	}
}

// One switch arm returns holding the lock.
func (l *Loops) pick(k int) int {
	l.mu.Lock()
	switch k {
	case 0:
		return l.n // want `returns while holding l.mu`
	case 1:
		l.n++
	}
	l.mu.Unlock()
	return 0
}

// With a default clause some arm always runs: the lock one arm takes
// and another does not is held on one path out.
func (l *Loops) kind(v any) {
	switch v.(type) {
	case int:
		l.mu.Lock()
	default:
		l.n++
	}
} // want `function ends while holding l.mu`

// A fallthrough carries the arm's lock into the next arm's body.
func (l *Loops) stepDown(k int) {
	switch k {
	case 0:
		l.mu.Lock()
		fallthrough
	case 1:
		l.mu.Unlock()
	}
}

// A select with a default never blocks; both clauses release.
func (l *Loops) poll(ch chan int) {
	l.mu.Lock()
	select {
	case v := <-ch:
		l.n += v
	default:
	}
	l.mu.Unlock()
}

// A labeled switch left by break L holding the lock.
func (l *Loops) labeledSwitch(k int) int {
L:
	switch k {
	case 0:
		l.mu.Lock()
		if l.n > 0 {
			break L
		}
		l.mu.Unlock()
	}
	return l.n // want `returns while holding l.mu`
}

// A labeled select left by break L holding the lock.
func (l *Loops) labeledSelect(ch chan int) int {
	l.mu.Lock()
L:
	select {
	case v := <-ch:
		if v > 0 {
			break L
		}
		l.mu.Unlock()
		return v
	}
	return l.n // want `returns while holding l.mu`
}

// The walk does not follow goto: the function is reported, not passed.
func (l *Loops) drain() {
again:
	l.mu.Lock()
	if l.n > 0 {
		l.n--
		l.mu.Unlock()
		goto again // want `lockorder does not follow goto`
	}
	l.mu.Unlock()
}

// Fan forks on each TryLock: seven of them make 2⁷ lock states, more
// than the walk keeps, so the function is reported, not passed.
type Fan struct{ mu [7]sync.Mutex }

func (f *Fan) grabAll() {
	f.mu[0].TryLock()
	f.mu[1].TryLock()
	f.mu[2].TryLock()
	f.mu[3].TryLock()
	f.mu[4].TryLock()
	f.mu[5].TryLock()
	f.mu[6].TryLock() // want `more than 64 lock states`
}

// Embedded is locked through the methods its mutex promotes; the lock's
// graph key is the embedded field.
type Embedded struct {
	sync.Mutex
	n int
}

func (e *Embedded) get() int {
	e.Lock()
	if e.n > 0 {
		return e.n // want `returns while holding e \(acquired`
	}
	e.Unlock()
	return 0
}

// Nest reaches its mutex through two embeddings, and takes it and peer
// in both orders.
type Nest struct {
	Embedded
	peer sync.Mutex
}

func (n *Nest) one() {
	n.Lock()
	n.peer.Lock() // want `lock-order cycle among \{lockorder.Embedded.Mutex, lockorder.Nest.peer\}`
	n.peer.Unlock()
	n.Unlock()
}

func (n *Nest) two() {
	n.peer.Lock()
	n.Lock()
	n.Unlock()
	n.peer.Unlock()
}
