package lockorder

import "sync"

// Everything in this file is clean: the accepted idioms, and the one
// convention that lets a function release a lock it did not take.

// Clean uses defer for release; the branchy return paths are all fine.
type Clean struct {
	mu    sync.RWMutex
	items map[string]int
}

func (c *Clean) get(k string) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.items[k]
	return v, ok
}

func (c *Clean) put(k string, v int, really bool) {
	c.mu.Lock()
	if !really {
		c.mu.Unlock()
		return
	}
	c.items[k] = v
	c.mu.Unlock()
}

// TryLock acquisition is correlated with the branch taken.
func (c *Clean) tryBump(k string) bool {
	if c.mu.TryLock() {
		c.items[k]++
		c.mu.Unlock()
		return true
	}
	return false
}

func (c *Clean) tryBumpNeg(k string) bool {
	if !c.mu.TryLock() {
		return false
	}
	c.items[k]++
	c.mu.Unlock()
	return true
}

// Hierarchy takes its locks in one consistent order everywhere: no cycle.
type Hierarchy struct {
	outer sync.Mutex
	inner sync.Mutex
	n     int
}

func (h *Hierarchy) both() {
	h.outer.Lock()
	h.inner.Lock()
	h.n++
	h.inner.Unlock()
	h.outer.Unlock()
}

func (h *Hierarchy) again() {
	h.outer.Lock()
	h.inner.Lock()
	h.n--
	h.inner.Unlock()
	h.outer.Unlock()
}

// Owner hands its lock to *Locked helpers: the suffix means "the caller
// holds mu", so an unlock without a visible acquire is accepted there.
type Owner struct {
	mu sync.Mutex
	n  int
}

func (o *Owner) bumpLocked() {
	o.n++
	o.mu.Unlock()
}
