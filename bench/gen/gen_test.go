package gen

import "testing"

// One seed must give one content hash, and two seeds two: the benchmark's
// reproducibility claim rests on it.
func TestSeedDeterminesContent(t *testing.T) {
	type hashes struct{ host, cluster, central string }
	build := func(seed int64) hashes {
		c, err := Central(seed)
		if err != nil {
			t.Fatal(err)
		}
		return hashes{Host(seed).Hash, Cluster(seed).Hash, c.Hash}
	}
	a, again, b := build(1), build(1), build(2)
	if a != again {
		t.Fatalf("seed 1 generated twice differs: %+v vs %+v", a, again)
	}
	if a.host == b.host || a.cluster == b.cluster || a.central == b.central {
		t.Fatalf("seeds 1 and 2 share a hash: %+v vs %+v", a, b)
	}
}

// The reference counts must describe the cycle they were derived from.
func TestCentralReferenceMatchesBatches(t *testing.T) {
	in, err := Central(7)
	if err != nil {
		t.Fatal(err)
	}
	rounds := uint64(CentralCycleRounds + 3)
	tuples, counts := in.Reference(rounds)
	got := make([]uint64, len(in.Queries))
	per := uint64(in.BatchesPerRound())
	for g := uint64(0); g < rounds*per; g++ {
		b, _ := in.Batch(g)
		got[b.Query] += uint64(len(b.Tuples))
	}
	for qi, q := range in.Queries {
		if got[qi] != tuples[qi] {
			t.Errorf("%s: reference says %d tuples, batches hold %d", q.Name, tuples[qi], got[qi])
		}
		if q.CountCol >= 0 && counts[qi] == 0 {
			t.Errorf("%s: zero count(*) reference", q.Name)
		}
	}
}

// Every fanout query's text must parse and its reference predicate must
// select a sensible share of the pool.
func TestFanoutSelectivity(t *testing.T) {
	in := Host(3)
	qs := FanoutQueries()
	if len(qs) != 64 {
		t.Fatalf("want 64 fanout queries, got %d", len(qs))
	}
	counts := in.MatchCounts(qs, HostPoolSize)
	var total uint64
	for i, c := range counts {
		if c == 0 {
			t.Errorf("%s matches nothing", qs[i].Name)
		}
		total += c
	}
	perEvent := float64(total) / HostPoolSize
	if perEvent < 0.5 || perEvent > 2 {
		t.Errorf("fanout ships %.2f tuples per event, want about 1", perEvent)
	}
}
