package agg

import (
	"math"

	"scrub/internal/event"
	"scrub/internal/sketch"
	"scrub/internal/slab"
	"scrub/internal/wire"
)

// Layout is where a plan's aggregates live in a Slab: aggregate i is the
// rank-th of the stride states of its kind's slab that every group has.
type Layout struct {
	slots []slot
	// widest is the largest stride: the slab that runs out of indexes
	// first.
	widest   uint32
	sketches bool // some aggregate is TOP_K or COUNT_DISTINCT
}

type slot struct {
	spec         Spec
	stride, rank uint32
}

// slabOf says which of a Slab's typed slabs holds a kind's states.
func slabOf(k Kind) int {
	switch k {
	case KindCountStar, KindCount:
		return 0
	case KindMin, KindMax:
		return 1
	default:
		return int(k)
	}
}

// NewLayout lays out a plan's aggregates, rejecting a spec no state can
// be made for.
func NewLayout(specs []Spec) (*Layout, error) {
	var strides [KindCountDistinct + 1]uint32
	l := &Layout{slots: make([]slot, len(specs))}
	for i, s := range specs {
		if err := s.validate(); err != nil {
			return nil, err
		}
		l.slots[i] = slot{spec: s, rank: strides[slabOf(s.Kind)]}
		l.sketches = l.sketches || s.Kind == KindTopK || s.Kind == KindCountDistinct
		strides[slabOf(s.Kind)]++
	}
	for i := range l.slots {
		l.slots[i].stride = strides[slabOf(l.slots[i].spec.Kind)]
		l.widest = max(l.widest, l.slots[i].stride)
	}
	return l, nil
}

// Slab holds the aggregate states of all the groups of one window, one
// typed chunked array (internal/slab) per kind of state and no word per
// state beside them: a window of thousands of groups pays one allocation
// per chunk, and the set is freed with the window that owns the Slab.
// Every group's states are carved in lockstep, and a slab.Slab skips no
// index, which puts aggregate i of the g-th group at element g×stride +
// rank of its kind's slab: a state is found from the group's ordinal by
// arithmetic, and whoever wants it gets an Aggregator made on the spot
// from the typed pointer (At). The sketch-backed kinds keep their count,
// and a pointer to a sketch allocated on its own, in their slabs. A Slab
// is not safe for concurrent use.
type Slab struct {
	lay       *Layout
	groups    uint32
	counts    slab.Slab[countAgg]
	sums      slab.Slab[sumAgg]
	avgs      slab.Slab[avgAgg]
	extremes  slab.Slab[extremeAgg]
	topks     slab.Slab[topKAgg]
	distincts slab.Slab[distinctAgg]
	sketches  int64 // bytes held by the sketches of topks and distincts
}

// NewSlab returns an empty Slab for groups laid out by l.
func NewSlab(l *Layout) *Slab { return &Slab{lay: l} }

// carve hands out the states of one more group and returns its ordinal;
// fresh says whether to make its sketches or leave them for the caller to
// set. It fails when a slab would outgrow its uint32 indexes.
func (sl *Slab) carve(fresh bool) (uint32, bool) {
	g := sl.groups
	if (uint64(g)+1)*uint64(sl.lay.widest) > math.MaxUint32 {
		return 0, false
	}
	for i := range sl.lay.slots {
		switch s := sl.lay.slots[i].spec; s.Kind {
		case KindCountStar, KindCount:
			sl.counts.Append()
		case KindSum:
			sl.sums.Append()
		case KindAvg:
			sl.avgs.Append()
		case KindMin, KindMax:
			sl.extremes.Append().min = s.Kind == KindMin
		case KindTopK:
			a := sl.topks.Append()
			if a.k = s.K; fresh {
				a.ss = sketch.MustSpaceSaving(topKCapacity(s.K)) // validated by NewLayout
			}
		case KindCountDistinct:
			if a := sl.distincts.Append(); fresh {
				a.hll = sketch.MustHLL(hllPrecision(s))
			}
		}
	}
	sl.groups++
	return g, true
}

// sketchBytes is what the sketches of group g hold.
func (sl *Slab) sketchBytes(g uint32) (n int64) {
	for i := 0; sl.lay.sketches && i < len(sl.lay.slots); i++ {
		switch a := sl.At(g, i).(type) {
		case *topKAgg:
			n += a.ss.Bytes()
		case *distinctAgg:
			n += a.hll.Bytes()
		}
	}
	return n
}

// Open starts a group with empty states.
func (sl *Slab) Open() (uint32, bool) {
	g, ok := sl.carve(true)
	if ok {
		sl.sketches += sl.sketchBytes(g)
	}
	return g, ok
}

// Code codes the states of group *g, one per aggregate of the layout, in
// c's mode (codeState). Decoding starts a group with the states the bytes
// hold and sets *g to its ordinal; its sketches are made to the layout's
// shape, and bytes of another shape are refused.
func (sl *Slab) Code(c *wire.Coder, g *uint32) {
	if c.Mode == wire.Decoding && c.Err == nil {
		var ok bool
		if *g, ok = sl.carve(true); !ok {
			c.Fail("aggregate slab is full")
		}
	}
	if c.Err != nil {
		return
	}
	for i := range sl.lay.slots {
		codeState(c, sl.At(*g, i))
	}
	if c.Mode == wire.Decoding && c.Err == nil {
		sl.sketches += sl.sketchBytes(*g)
	}
}

// Adopt starts a group with the states of src's group sg, which src must
// not use afterwards: sketches move, they are not copied.
func (sl *Slab) Adopt(src *Slab, sg uint32) (uint32, bool) {
	g, ok := sl.carve(false)
	if !ok {
		return 0, false
	}
	for i := range sl.lay.slots {
		switch d, s := sl.At(g, i), src.At(sg, i); d := d.(type) {
		case *countAgg:
			*d = *s.(*countAgg)
		case *countStarAgg:
			*d = *s.(*countStarAgg)
		case *sumAgg:
			*d = *s.(*sumAgg)
		case *avgAgg:
			*d = *s.(*avgAgg)
		case *extremeAgg:
			*d = *s.(*extremeAgg)
		case *topKAgg:
			*d = *s.(*topKAgg)
		case *distinctAgg:
			*d = *s.(*distinctAgg)
		}
	}
	sl.sketches += sl.sketchBytes(g)
	return g, true
}

// Merge folds src's group sg into group g, aggregate by aggregate.
func (sl *Slab) Merge(g uint32, src *Slab, sg uint32) {
	sl.sketches -= sl.sketchBytes(g)
	for i := range sl.lay.slots {
		// Same layout, same kinds: Merge errs only on a kind mismatch.
		_ = sl.At(g, i).Merge(src.At(sg, i))
	}
	sl.sketches += sl.sketchBytes(g)
}

// Add folds v of weight w into aggregate i of group g and reports whether
// a sketch took more memory, so that Bytes has moved. (A switch on the plan's kind
// into the concrete state, in place of At's interface and its call, was
// built and measured no faster: EXPERIMENTS.md M10.)
//
//scrub:hotpath
func (sl *Slab) Add(g uint32, i int, v event.Value, w uint64) bool {
	a := sl.At(g, i)
	t, ok := a.(*topKAgg)
	if !ok {
		a.Add(v, w)
		return false
	}
	before := t.ss.Bytes()
	t.Add(v, w)
	grown := t.ss.Bytes() - before
	sl.sketches += grown
	return grown != 0
}

// At returns aggregate i of group g as an Aggregator over the state where
// it lies: what it does to the state, it does to the slab's.
func (sl *Slab) At(g uint32, i int) Aggregator {
	s := &sl.lay.slots[i]
	at := g*s.stride + s.rank
	switch s.spec.Kind {
	case KindCountStar:
		return (*countStarAgg)(sl.counts.At(at))
	case KindCount:
		return sl.counts.At(at)
	case KindSum:
		return sl.sums.At(at)
	case KindAvg:
		return sl.avgs.At(at)
	case KindMin, KindMax:
		return sl.extremes.At(at)
	case KindTopK:
		return sl.topks.At(at)
	default:
		return sl.distincts.At(at)
	}
}

// Bytes returns the total size of the chunks allocated so far and of the
// sketches the states point to. A nil Slab holds nothing.
func (sl *Slab) Bytes() int64 {
	if sl == nil {
		return 0
	}
	return sl.counts.Bytes() + sl.sums.Bytes() + sl.avgs.Bytes() + sl.extremes.Bytes() +
		sl.topks.Bytes() + sl.distincts.Bytes() + sl.sketches
}
