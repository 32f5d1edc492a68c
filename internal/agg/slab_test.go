package agg

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"scrub/internal/event"
	"scrub/internal/slab"
)

// Aggregators carved from a Slab must be indistinguishable from the ones
// New allocates — same results, same serialized state, mergeable with
// them — while costing one allocation per chunk, not one each.
func TestSlabAggregatorsMatchNew(t *testing.T) {
	specs := []Spec{
		{Kind: KindCountStar}, {Kind: KindCount}, {Kind: KindSum}, {Kind: KindAvg},
		{Kind: KindMin}, {Kind: KindMax}, {Kind: KindTopK, K: 3}, {Kind: KindCountDistinct, Prec: 6},
	}
	rng := rand.New(rand.NewSource(5))
	var sl Slab
	type pair struct{ slab, heap Aggregator }
	var pairs []pair
	// Enough of each kind to cross several chunk boundaries.
	for i := 0; i < 3*slab.MaxChunk; i++ {
		spec := specs[i%len(specs)]
		a, err := sl.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{a, MustNew(spec)})
	}
	// Interleave the updates so a state that aliased its neighbour in a
	// chunk would be caught.
	for round := 0; round < 20; round++ {
		for _, p := range pairs {
			v := randValue(rng)
			p.slab.Add(v)
			p.heap.Add(v)
		}
	}
	for i, p := range pairs {
		spec := specs[i%len(specs)]
		if !sameResult(p.slab.Result(), p.heap.Result()) || p.slab.Count() != p.heap.Count() {
			t.Fatalf("%v #%d: slab %v (%d), heap %v (%d)", spec.Kind, i, p.slab.Result(), p.slab.Count(), p.heap.Result(), p.heap.Count())
		}
		se, err1 := AppendState(nil, p.slab)
		he, err2 := AppendState(nil, p.heap)
		if err1 != nil || err2 != nil || !bytes.Equal(se, he) {
			t.Fatalf("%v #%d: serialized states differ", spec.Kind, i)
		}
		d, n, err := sl.DecodeState(spec, se)
		if err != nil || n != len(se) {
			t.Fatalf("%v #%d: Slab.DecodeState: n=%d err=%v", spec.Kind, i, n, err)
		}
		if err := d.Merge(p.heap); err != nil {
			t.Fatalf("%v #%d: merge heap into slab state: %v", spec.Kind, i, err)
		}
		if d.Count() != 2*p.heap.Count() {
			t.Fatalf("%v #%d: merged count %d, want %d", spec.Kind, i, d.Count(), 2*p.heap.Count())
		}
	}
	if _, err := sl.New(Spec{Kind: KindTopK}); err == nil {
		t.Error("Slab.New must validate specs like New")
	}
	if sl.Bytes() <= 0 {
		t.Error("Bytes() must count the chunks")
	}
	var fresh Slab
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < slab.MaxChunk; i++ {
			if _, err := fresh.New(Spec{Kind: KindAvg}); err != nil {
				t.Fatal(err)
			}
		}
	}); n > 2 {
		t.Errorf("%d scalar states cost %v allocations, want one per chunk", slab.MaxChunk, n)
	}
}

// TOP_K keys its counters by the value's string form; once an item is
// tracked, counting it again must not allocate that string.
func TestTopKAddTrackedItemDoesNotAllocate(t *testing.T) {
	a := MustNew(Spec{Kind: KindTopK, K: 4})
	ref := MustNew(Spec{Kind: KindTopK, K: 4})
	vals := []event.Value{event.Int(123456789), event.Str("user-7"), event.Float(2.5), event.Int(-1)}
	for i := 0; i < 40; i++ {
		for _, v := range vals[:1+i%len(vals)] {
			a.Add(v)
			ref.(*topKAgg).ss.Add(v.String()) // the formatting Add used to do
		}
	}
	got, _ := TopKEntries(a)
	want := ref.(*topKAgg).ss.Top(4)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("entries %v, want %v", got, want)
	}
	// The sketch allocates on its own account when a counter moves to a
	// count no bucket holds yet, so Add is measured against the path it
	// replaces: the same sketch updates, plus one string per value.
	ints := []event.Value{event.Int(123456789), event.Int(987654321)}
	b, old := MustNew(Spec{Kind: KindTopK, K: 4}), MustNew(Spec{Kind: KindTopK, K: 4}).(*topKAgg)
	for _, v := range ints {
		b.Add(v)
		old.ss.Add(v.String())
	}
	now := testing.AllocsPerRun(100, func() {
		b.Add(ints[0])
		b.Add(ints[1])
	})
	before := testing.AllocsPerRun(100, func() {
		old.ss.Add(ints[0].String())
		old.ss.Add(ints[1].String())
	})
	if now > before-2 {
		t.Errorf("two Adds of tracked items allocate %v times, formatting first %v: want one string less per Add", now, before)
	}
}
