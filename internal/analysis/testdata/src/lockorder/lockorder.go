// Package lockorder is golden-test input for the lockorder analyzer:
// lock-order cycles, lock leaks on return/panic/fall-through paths,
// double locks, interprocedural re-acquisition, the accepted idioms
// (*Locked suffix, defer, TryLock) in hatches.go, and the branch walk
// (loops, switches, selects, labels, goto, the state cap) in loops.go.
package lockorder

import "sync"

// ABCycle's two methods take its locks in opposite orders.
type ABCycle struct {
	a sync.Mutex
	b sync.Mutex
}

func (c *ABCycle) one() {
	c.a.Lock()
	c.b.Lock() // want `lock-order cycle among \{lockorder.ABCycle.a, lockorder.ABCycle.b\}`
	c.b.Unlock()
	c.a.Unlock()
}

func (c *ABCycle) two() {
	c.b.Lock()
	c.a.Lock()
	c.a.Unlock()
	c.b.Unlock()
}

// Leak returns mid-function with the lock still held.
type Leak struct{ mu sync.Mutex }

func (l *Leak) get(cond bool) int {
	l.mu.Lock()
	if cond {
		return 1 // want `returns while holding l.mu`
	}
	l.mu.Unlock()
	return 0
}

// Tail falls off the end of the function with the lock held.
type Tail struct{ mu sync.Mutex }

func (t *Tail) open() {
	t.mu.Lock()
} // want `function ends while holding t.mu`

// Boom panics with the lock held and no deferred release.
type Boom struct{ mu sync.Mutex }

func (b *Boom) explode() {
	b.mu.Lock()
	panic("bad state") // want `panics while holding b.mu`
}

// Double re-acquires a lock it already holds on the same path.
type Double struct{ mu sync.Mutex }

func (d *Double) twice() {
	d.mu.Lock()
	d.mu.Lock() // want `lock d.mu is already held on this path`
	d.mu.Unlock()
	d.mu.Unlock()
}

// Spurious unlocks a lock no path ever acquired.
type Spurious struct{ mu sync.Mutex }

func (s *Spurious) oops() {
	s.mu.Unlock() // want `unlock of s.mu which is not held on any path here`
}

// Nested calls a method whose call graph re-acquires the held lock.
type Nested struct{ mu sync.Mutex }

func (n *Nested) outer() {
	n.mu.Lock()
	n.inner() // want `calls \(\*lockorder.Nested\).inner while holding n.mu`
	n.mu.Unlock()
}

func (n *Nested) inner() {
	n.mu.Lock()
	defer n.mu.Unlock()
}
