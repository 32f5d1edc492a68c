package slab

import (
	"bytes"
	"math/rand"
	"testing"
)

// Runs of mixed lengths — empty ones and ones longer than a settled
// chunk among them — come back by address, keep their bytes while the
// arena grows, never move, and lie back to back in Chunks in append
// order.
func TestArenaRunsKeepContents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a Arena
	type rec struct {
		at   uint32
		want []byte
		tail []byte // taken right after the append
	}
	var recs []rec
	var all []byte
	for i := 0; i < 4000; i++ {
		n := rng.Intn(40)
		switch rng.Intn(200) {
		case 0:
			n = ArenaMaxChunk + 1 + rng.Intn(3*ArenaMaxChunk)
		case 1:
			n = ArenaMaxChunk - rng.Intn(2)
		}
		b := make([]byte, n)
		rng.Read(b)
		at, ok := a.Append(b)
		if !ok {
			t.Fatalf("append %d of %d bytes refused", i, n)
		}
		r := rec{at: at, want: b}
		if n > 0 {
			r.tail = a.Tail(at)[:n]
		} else if at != 0 {
			t.Fatalf("empty run got address %d", at)
		}
		recs = append(recs, r)
		all = append(all, b...)
	}
	for i, r := range recs {
		if len(r.want) == 0 {
			continue
		}
		got := a.Tail(r.at)
		if len(got) < len(r.want) || !bytes.Equal(got[:len(r.want)], r.want) {
			t.Fatalf("run %d at %d: contents changed", i, r.at)
		}
		if &got[0] != &r.tail[0] {
			t.Fatalf("run %d moved while the arena grew", i)
		}
		if s := String(got[:len(r.want)]); s != string(r.want) {
			t.Fatalf("run %d: String differs from the bytes", i)
		}
	}
	var joined []byte
	var held int64
	for _, c := range a.Chunks() {
		joined = append(joined, c...)
		held += int64(cap(c))
	}
	if !bytes.Equal(joined, all) {
		t.Fatal("Chunks is not the runs back to back in append order")
	}
	if a.Bytes() != held {
		t.Fatalf("Bytes() = %d, chunks hold %d", a.Bytes(), held)
	}
}

// The first chunks double, so a window with a handful of bytes pays for a
// small chunk, and an empty run allocates nothing at all.
func TestArenaChunkSizes(t *testing.T) {
	var a Arena
	if at, ok := a.Append(nil); !ok || at != 0 || a.Bytes() != 0 || len(a.Chunks()) != 0 {
		t.Fatal("the empty run must take no space")
	}
	one := []byte{1}
	for a.Bytes() < 4*ArenaMaxChunk {
		a.Append(one)
	}
	want := ArenaMinChunk
	for k, c := range a.Chunks() {
		if cap(c) != want {
			t.Fatalf("chunk %d holds %d bytes, want %d", k, cap(c), want)
		}
		want = min(2*want, ArenaMaxChunk)
	}
	if String(nil) != "" {
		t.Fatal("String(nil)")
	}
}
