package slab

import (
	"math/rand"
	"testing"
)

// locate must be the inverse of laying the chunks end to end.
func TestSlabLocate(t *testing.T) {
	i := 0
	for k := 0; k < steps+3; k++ {
		for off := 0; off < chunkCap(k); off++ {
			if gk, goff := locate(i); gk != k || goff != off {
				t.Fatalf("locate(%d) = (%d, %d), want (%d, %d)", i, gk, goff, k, off)
			}
			i++
		}
	}
	if chunkCap(0) != MinChunk || chunkCap(steps) != MaxChunk || chunkCap(steps+5) != MaxChunk {
		t.Fatal("chunk capacities")
	}
}

// Runs of mixed widths never straddle a chunk, keep their contents while
// the slab grows, and come back by index.
func TestSlabRunsKeepContents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Slab[int]
	type rec struct {
		at uint32
		w  int
	}
	var recs []rec
	next := 0
	for len(recs) < 5000 {
		w := rng.Intn(6)
		if rng.Intn(50) == 0 {
			w = 1 + rng.Intn(MaxChunk)
		}
		at, run, ok := s.Alloc(w)
		if !ok || len(run) != w || cap(run) != w {
			t.Fatalf("alloc(%d) = %d, len %d cap %d, %v", w, at, len(run), cap(run), ok)
		}
		for j := range run {
			if run[j] != 0 {
				t.Fatalf("run at %d not zeroed", at)
			}
			run[j] = next
			next++
		}
		recs = append(recs, rec{at, w})
	}
	want := 0
	for _, r := range recs {
		run := s.Run(r.at, r.w)
		for j := range run {
			if run[j] != want || s.Run(r.at+uint32(j), 1)[0] != want {
				t.Fatalf("run at %d[%d] = %d, want %d", r.at, j, run[j], want)
			}
			want++
		}
	}
	if _, _, ok := s.Alloc(MaxChunk + 1); ok {
		t.Fatal("a run longer than a chunk must be refused")
	}
	var total int
	for _, c := range s.chunks {
		total += len(c)
	}
	if s.allocated != total || s.Bytes() != int64(total)*8 {
		t.Fatalf("allocated %d, bytes %d, chunks hold %d", s.allocated, s.Bytes(), total)
	}
}
