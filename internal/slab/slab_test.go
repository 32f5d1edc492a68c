package slab

import "testing"

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

// The i-th element appended is element i, zeroed when handed out, and
// keeps its contents and its address while the slab grows.
func TestSlabElementsKeepContents(t *testing.T) {
	var s Slab[int]
	var ptrs []*int
	for i := 0; i < 3*MaxChunk; i++ {
		e := s.Append()
		if *e != 0 {
			t.Fatalf("element %d not zeroed", i)
		}
		*e = i + 1
		ptrs = append(ptrs, e)
	}
	for i, e := range ptrs {
		if got := s.At(uint32(i)); got != e || *got != i+1 {
			t.Fatalf("At(%d) = %p holding %d, want %p holding %d", i, got, *got, e, i+1)
		}
	}
	var total int
	for _, c := range s.chunks {
		total += len(c)
	}
	if s.Bytes() != int64(total)*8 || total < 3*MaxChunk || total >= 4*MaxChunk {
		t.Fatalf("bytes %d, chunks hold %d elements for %d appended", s.Bytes(), total, 3*MaxChunk)
	}
}
