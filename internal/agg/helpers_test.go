package agg

import (
	"fmt"

	"scrub/internal/sketch"
	"scrub/internal/wire"
)

// New is the boxed twin of a Slab's states: one aggregator of spec s,
// standing alone, that tests fold beside a Slab and compare with it.
func New(s Spec) (Aggregator, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindCountStar:
		return &countStarAgg{}, nil
	case KindCount:
		return &countAgg{}, nil
	case KindSum:
		return &sumAgg{}, nil
	case KindAvg:
		return &avgAgg{}, nil
	case KindMin:
		return &extremeAgg{min: true}, nil
	case KindMax:
		return &extremeAgg{}, nil
	case KindTopK:
		return &topKAgg{k: s.K, ss: sketch.MustSpaceSaving(topKCapacity(s.K))}, nil
	default:
		return &distinctAgg{hll: sketch.MustHLL(hllPrecision(s))}, nil
	}
}

// MustNew is New that panics on error.
func MustNew(s Spec) Aggregator {
	a, err := New(s)
	if err != nil {
		panic(err)
	}
	return a
}

// inputs is how many inputs a folded in (post-NULL-filtering).
func inputs(a Aggregator) uint64 {
	switch a := a.(type) {
	case *countAgg:
		return a.n
	case *countStarAgg:
		return a.n
	case *sumAgg:
		return a.n
	case *avgAgg:
		return a.n
	case *extremeAgg:
		return a.n
	case *topKAgg:
		return a.n
	case *distinctAgg:
		return a.n
	}
	panic(fmt.Sprintf("agg: no input count in %T", a))
}

// topEntry is one TOP_K heavy hitter as the summary's EachTop reports it.
type topEntry struct {
	Item       string
	Count, Err uint64
}

// topKEntries reads a TOP_K aggregator's top k through EachTop; ok is
// false for any other aggregate.
func topKEntries(a Aggregator) (out []topEntry, ok bool) {
	t, ok := a.(*topKAgg)
	if !ok {
		return nil, false
	}
	t.ss.EachTop(t.k, func(item []byte, count, errVal uint64) {
		out = append(out, topEntry{Item: string(item), Count: count, Err: errVal})
	})
	return out, true
}

// appendState appends one aggregate's state, as Slab.Code encodes it.
func appendState(dst []byte, a Aggregator) ([]byte, error) {
	c := wire.Coder{Buf: dst}
	codeState(&c, a)
	return c.Buf, c.Err
}

// slabDecode starts a group of sl with the states at the head of b and
// returns its ordinal and the bytes they took.
func slabDecode(sl *Slab, b []byte) (uint32, int, error) {
	c := wire.Coder{Mode: wire.Decoding, Buf: b}
	var g uint32
	sl.Code(&c, &g)
	return g, c.Pos, c.Err
}

// decodeState decodes one aggregate's state, serialized by appendState,
// into a one-group Slab and returns it with the bytes consumed.
func decodeState(s Spec, b []byte) (Aggregator, int, error) {
	lay, err := NewLayout([]Spec{s})
	if err != nil {
		return nil, 0, err
	}
	sl := NewSlab(lay)
	g, n, err := slabDecode(sl, b)
	if err != nil {
		return nil, 0, err
	}
	return sl.At(g, 0), n, nil
}
