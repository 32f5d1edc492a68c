package agg

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"scrub/internal/event"
	"scrub/internal/slab"
)

// randLayout draws a plan of 1–5 aggregates: every kind can appear, a kind
// can repeat (strides of 2 and 3 divide no chunk), and sketches are small.
func randLayout(rng *rand.Rand) []Spec {
	specs := make([]Spec, 1+rng.Intn(5))
	for i := range specs {
		switch k := KindCountStar + Kind(rng.Intn(int(KindCountDistinct))); k {
		case KindTopK:
			specs[i] = Spec{Kind: k, K: 1 + rng.Intn(3)}
		case KindCountDistinct:
			specs[i] = Spec{Kind: k, Prec: uint8(4 + rng.Intn(3))}
		default:
			specs[i] = Spec{Kind: k}
		}
	}
	return specs
}

// Every aggregate a Slab addresses — group ordinal × stride + rank, no word
// stored per state — must be indistinguishable from the aggregator New
// makes for the same spec: same results, same serialized state, whatever
// opened the group (Open, Decode of a partial, Adopt out of another slab as
// a merge does) and wherever its states fall: the group count takes every
// used slab across the chunk boundaries at elements 16, 48, 240 and
// beyond the first full-size chunk, with strides that split a group's
// states over two chunks.
func TestSlabAggregatorsMatchNew(t *testing.T) {
	const groups = slab.MaxChunk + slab.MaxChunk + 40 // past element 240 + MaxChunk at stride 1
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs := randLayout(rng)
		if seed == 1 { // every kind at once, the counts at stride 3
			specs = []Spec{{Kind: KindCountStar}, {Kind: KindCount}, {Kind: KindSum}, {Kind: KindAvg}, {Kind: KindMin},
				{Kind: KindMax}, {Kind: KindTopK, K: 3}, {Kind: KindCountDistinct, Prec: 6}, {Kind: KindCountStar}}
		}
		lay, err := NewLayout(specs)
		if err != nil {
			t.Fatal(err)
		}
		sl, donor := NewSlab(lay), NewSlab(lay)
		twins := make([][]Aggregator, 0, groups) // twins[g][i] shadows sl's (g, i)
		fold := func(sl *Slab, g uint32, twins []Aggregator) {
			for i := range specs {
				v := randValue(rng)
				sl.Add(g, i, v, 1)
				twins[i].Add(v, 1)
			}
		}
		for len(twins) < groups {
			tw := make([]Aggregator, len(specs))
			for i, spec := range specs {
				tw[i] = MustNew(spec)
			}
			var g uint32
			var ok bool
			switch rng.Intn(3) {
			case 0:
				g, ok = sl.Open()
			case 1: // as decodePartial opens it
				var enc []byte
				for i := range specs {
					tw[i].Add(randValue(rng), 1)
					tw[i].Add(randValue(rng), 1)
					enc, _ = appendState(enc, tw[i])
				}
				var n int
				g, n, err = slabDecode(sl, enc)
				ok = err == nil && n == len(enc)
			case 2: // as mergeWinStates adopts a group only the source has
				dg, _ := donor.Open()
				fold(donor, dg, tw)
				fold(donor, dg, tw)
				g, ok = sl.Adopt(donor, dg)
			}
			if !ok || int(g) != len(twins) {
				t.Fatalf("seed %d: group %d opened as %d (ok=%v err=%v)", seed, len(twins), g, ok, err)
			}
			twins = append(twins, tw)
		}
		// Interleave the updates so a state that aliased its neighbour —
		// in its chunk or in the next group — would be caught.
		for round := 0; round < 6; round++ {
			for g, tw := range twins {
				fold(sl, uint32(g), tw)
			}
		}
		for g, tw := range twins {
			for i, spec := range specs {
				a := sl.At(uint32(g), i)
				if !sameResult(a.Result(), tw[i].Result()) || inputs(a) != inputs(tw[i]) {
					t.Fatalf("seed %d %v: group %d aggregate %d (%v): slab %v (%d), New %v (%d)", seed, specs, g, i, spec.Kind, a.Result(), inputs(a), tw[i].Result(), inputs(tw[i]))
				}
				se, err1 := appendState(nil, a)
				he, err2 := appendState(nil, tw[i])
				if err1 != nil || err2 != nil || !bytes.Equal(se, he) {
					t.Fatalf("seed %d: group %d aggregate %d (%v): serialized states differ", seed, g, i, spec.Kind)
				}
			}
		}
		// Merge folds a group of another slab in as Aggregator.Merge does.
		for g := 0; g < groups; g += 97 {
			sl.Merge(uint32(g), sl, uint32(g))
			for i := range specs {
				if got, want := inputs(sl.At(uint32(g), i)), 2*inputs(twins[g][i]); got != want {
					t.Fatalf("seed %d: group %d aggregate %d merged with itself counts %d, want %d", seed, g, i, got, want)
				}
			}
		}
		var sketches int64
		for g := range twins {
			sketches += sl.sketchBytes(uint32(g))
		}
		if sl.Bytes() <= sketches || sl.sketches != sketches {
			t.Errorf("seed %d: Bytes() = %d with %d accounted to sketches, which hold %d", seed, sl.Bytes(), sl.sketches, sketches)
		}
	}
	if _, err := NewLayout([]Spec{{Kind: KindTopK}}); err == nil {
		t.Error("NewLayout must validate specs like New")
	}
	if (*Slab)(nil).Bytes() != 0 {
		t.Error("a nil Slab holds nothing")
	}
	lay, _ := NewLayout([]Spec{{Kind: KindAvg}, {Kind: KindCountStar}, {Kind: KindAvg}})
	if n := testing.AllocsPerRun(10, func() {
		fresh := NewSlab(lay)
		for i := 0; i < slab.MaxChunk/2; i++ {
			fresh.Open()
		}
	}); n > 1+(7+4)+(6+4) {
		t.Errorf("%d groups of three scalar states cost %v allocations, want one per chunk and per doubling of a chunk list", slab.MaxChunk/2, n)
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
			a.Add(v, 1)
			ref.(*topKAgg).ss.AddBytes([]byte(v.String())) // the formatting Add used to do
		}
	}
	got, _ := topKEntries(a)
	want, _ := topKEntries(ref)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("entries %v, want %v", got, want)
	}
	// Once every counter exists nothing allocates: not a tracked item,
	// whose string form is built in the reused buffer and looked up as
	// bytes, not an untracked one, not the takeover it causes.
	b := MustNew(Spec{Kind: KindTopK, K: 4})
	for i := 0; b.(*topKAgg).ss.Len() < topKCapacity(4); i++ {
		b.Add(event.Int(int64(1000+i)), 1)
	}
	b.Add(event.Str("user-7"), 1)
	next := int64(5000)
	if n := testing.AllocsPerRun(200, func() {
		b.Add(event.Int(1001), 1)     // tracked
		b.Add(event.Str("user-7"), 1) // tracked, a string
		b.Add(event.Int(next), 1)     // untracked: takes over the minimum
		next++
	}); n != 0 {
		t.Errorf("Adds on a built TOP_K allocate %v times, want 0", n)
	}
}

// TestSlabAddWeighs: a value of weight w counts w times in COUNT, COUNT(*),
// SUM and AVG's Σwx/Σw, and once in MIN, MAX and the sketches.
func TestSlabAddWeighs(t *testing.T) {
	specs := []Spec{{Kind: KindCountStar}, {Kind: KindCount}, {Kind: KindSum}, {Kind: KindSum}, {Kind: KindAvg},
		{Kind: KindMin}, {Kind: KindMax}, {Kind: KindTopK, K: 2}, {Kind: KindCountDistinct}}
	lay, err := NewLayout(specs)
	if err != nil {
		t.Fatal(err)
	}
	sl := NewSlab(lay)
	g, _ := sl.Open()
	for _, in := range []struct {
		v event.Value
		w uint64
	}{{event.Int(3), 1}, {event.Int(5), 4}, {event.Invalid, 2}} {
		for i := range specs {
			v := in.v
			if i == 3 && v.IsValid() { // the second SUM reads floats
				f, _ := v.AsFloat()
				v = event.Float(f / 2)
			}
			sl.Add(g, i, v, in.w)
		}
	}
	want := []string{"7", "5", "23", "11.5", event.Float(23.0 / 5).String(), "3", "5", "[3=1, 5=1]", "2"}
	for i, w := range want {
		if got := sl.At(g, i).Result().String(); got != w {
			t.Errorf("%s = %s, want %s", specs[i].Kind, got, w)
		}
	}
}
