package slab

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// testHash is the hash the index tests thread by: a run's key is the 8
// bytes after its link. clump sends every key to one bucket, whatever the
// size of the heads; otherwise keys spread.
type testHash struct{ clump bool }

func (h testHash) of(key uint64) uint64 {
	if h.clump {
		return 7
	}
	key *= 0x9e3779b97f4a7c15
	return key ^ key>>29
}

// indexModel drives two indexes over disjoint runs of one arena next to a
// Go map that remembers, per index and key, the addresses inserted, in
// order. It lays runs out the way an owner that drops the link from a run
// ending its chain does — [1 if linked] [link, if linked] [key, 8 bytes]
// [body] — and grows an index the way such an owner does: by walking the
// arena front to back, inserting the index's runs again and writing each
// linked run's link. jump makes a growth ask for jump times the runs held
// (Grow(n)), so the heads grow fourfold or more at once; 0 doubles them.
type indexModel struct {
	t    *testing.T
	h    testHash
	jump int
	a    Arena
	ix   [2]Index
	want [2]map[uint64][]uint32
	body map[uint32][]byte // what followed the key in the run at an address
	side map[uint32]int    // which index threads the run at an address
}

func newIndexModel(t *testing.T, h testHash, jump int) *indexModel {
	return &indexModel{t: t, h: h, jump: jump, want: [2]map[uint64][]uint32{{}, {}}, body: map[uint32][]byte{}, side: map[uint32]int{}}
}

// parse returns the link the run at the head of b holds (0 when it holds
// none), whether it holds one, and where its key begins.
func parse(b []byte) (next uint32, linked bool, key int) {
	if b[0] == 0 {
		return 0, false, 1
	}
	return binary.LittleEndian.Uint32(b[1:]), true, 1 + LinkSize
}

func (m *indexModel) insert(side int, key uint64, body []byte) {
	ix := &m.ix[side]
	if ix.Full() {
		m.grow(side)
	}
	next := ix.Head(m.h.of(key))
	run := []byte{0}
	if next != 0 {
		run = binary.LittleEndian.AppendUint32([]byte{1}, next)
	}
	run = binary.LittleEndian.AppendUint64(run, key)
	run = append(run, body...)
	at, ok := m.a.Append(run)
	if !ok {
		m.t.Fatal("append refused")
	}
	m.want[side][key] = append(m.want[side][key], at)
	m.body[at], m.side[at] = body, side
	if got := ix.Insert(at, m.h.of(key)); got != next {
		m.t.Fatalf("Insert returned link %d, Head said %d", got, next)
	}
}

// grow grows side's index and threads its runs again in arrival order. A
// run that found its bucket empty when it was appended finds it empty
// again: it is still its chain's last run.
func (m *indexModel) grow(side int) {
	ix := &m.ix[side]
	before := ix.Bytes()
	ix.Grow(m.jump * ix.Len())
	if m.jump > 0 && ix.Len() > 0 && ix.Bytes() < int64(m.jump)*before {
		m.t.Fatalf("Grow(%d) made %d heads from %d", m.jump*ix.Len(), ix.Bytes()/4, before/4)
	}
	for k, chunk := range m.a.Chunks() {
		for off := 0; off < len(chunk); {
			at, b := Addr(k, off), chunk[off:]
			_, linked, key := parse(b)
			if m.side[at] == side {
				next := ix.Insert(at, m.h.of(binary.LittleEndian.Uint64(b[key:])))
				if linked {
					binary.LittleEndian.PutUint32(b[1:], next)
				} else if next != 0 {
					m.t.Fatalf("side %d: the linkless run at %d is not its chain's last once the heads are %d", side, at, ix.Bytes()/4)
				}
			}
			off += key + 8 + len(m.body[at])
		}
	}
	m.check() // every entry is still found once the heads have grown
}

// find walks key's chain the way an owner does and returns the matching
// addresses, newest first. Every chain must run newest first.
func (m *indexModel) find(side int, key uint64) []uint32 {
	var got []uint32
	for link, steps := m.ix[side].Head(m.h.of(key)), 0; link != 0; steps++ {
		if steps > m.ix[side].Len() {
			m.t.Fatalf("side %d key %d: chain longer than the index", side, key)
		}
		b := m.a.Tail(link - 1)
		next, _, k := parse(b)
		if next >= link {
			m.t.Fatalf("side %d key %d: the run at %d links to %d, not to an older run", side, key, link-1, next-1)
		}
		if binary.LittleEndian.Uint64(b[k:]) == key {
			if !bytes.HasPrefix(b[k+8:], m.body[link-1]) {
				m.t.Fatalf("side %d key %d: run at %d lost its bytes", side, key, link-1)
			}
			got = append(got, link-1)
		}
		link = next
	}
	return got
}

// check requires every key of the model to be found with exactly its
// addresses — none missing, none twice, none of the other side's — in
// reverse insertion order, and a key never inserted to be absent.
func (m *indexModel) check() {
	m.t.Helper()
	for side := range m.ix {
		n := 0
		for key, ats := range m.want[side] {
			want := slices.Clone(ats)
			slices.Reverse(want)
			if got := m.find(side, key); !slices.Equal(got, want) {
				m.t.Fatalf("side %d key %d: found %v, want %v (%d buckets)", side, key, got, want, m.ix[side].Bytes()/4)
			}
			n += len(ats)
		}
		if m.ix[side].Len() != n {
			m.t.Fatalf("side %d: Len %d, model holds %d", side, m.ix[side].Len(), n)
		}
		if got := m.find(side, 1<<63); got != nil {
			m.t.Fatalf("side %d: a key never inserted was found at %v", side, got)
		}
	}
}

// Through eight doublings — or growths of four and sixteen times at once —
// with repeated keys, bodies of mixed lengths and both sides interleaved
// in one arena, the chains agree with the map, whether the hash spreads
// the keys or sends them all to one bucket.
func TestIndexMatchesMap(t *testing.T) {
	for _, h := range []testHash{{clump: false}, {clump: true}} {
		for _, jump := range []int{0, 4, 16} {
			rng := rand.New(rand.NewSource(5))
			m := newIndexModel(t, h, jump)
			n := 5000
			if h.clump {
				n = 600 // every lookup walks every run
			}
			for i := 0; i < n; i++ {
				body := make([]byte, rng.Intn(24))
				rng.Read(body)
				m.insert(rng.Intn(2), uint64(rng.Intn(n/3)), body)
			}
			m.check()
			linkless := 0
			for k, chunk := range m.a.Chunks() {
				for off := 0; off < len(chunk); {
					_, linked, key := parse(chunk[off:])
					if !linked {
						linkless++
					}
					off += key + 8 + len(m.body[Addr(k, off)])
				}
			}
			if b := m.ix[0].Bytes(); b < 4*indexMinBuckets<<4 {
				t.Fatalf("clump=%v jump=%d: heads hold %d bytes: the index did not grow often enough to test", h.clump, jump, b)
			}
			if linkless == 0 {
				t.Fatalf("clump=%v jump=%d: no run ended its chain", h.clump, jump)
			}
		}
	}
}

// The empty index answers lookups and costs nothing.
func TestIndexZeroValue(t *testing.T) {
	var ix Index
	if ix.Head(12345) != 0 || ix.Len() != 0 || ix.Bytes() != 0 || !ix.Full() {
		t.Fatal("the zero Index is not empty")
	}
}

// An owner that knows how many runs it holds grows to that in one step:
// the heads are what doubling from the minimum would have reached, and
// every run threads without another growth.
func TestIndexGrowToCount(t *testing.T) {
	for _, n := range []int{0, 1, indexMinBuckets, indexMinBuckets + 1, 1000, 4096} {
		var fitted, doubled Index
		fitted.Grow(n)
		for doubled.Bytes() < int64(4*n) || doubled.Bytes() == 0 {
			doubled.Grow(0)
		}
		if fitted.Bytes() != doubled.Bytes() {
			t.Errorf("Grow(%d): %d bytes of heads, doubling reaches %d", n, fitted.Bytes(), doubled.Bytes())
		}
		var a Arena
		for i := 0; i < n; i++ {
			if fitted.Full() {
				t.Fatalf("Grow(%d): full after %d runs", n, i)
			}
			at, _ := a.Append(make([]byte, LinkSize+1))
			fitted.Insert(at, uint64(i))
		}
	}
}

// FuzzIndex: the first byte picks the hash and how the heads grow, every
// further byte inserts one run — side from the top bit, key from the
// rest, so keys repeat.
func FuzzIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 40, 300, 1500} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Add(bytes.Repeat([]byte{1, 0x85}, 200)) // clumped, one key a side
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 4096 { // a clumped lookup walks every run
			return
		}
		m := newIndexModel(t, testHash{clump: ops[0]&1 == 1}, []int{0, 4, 5, 64}[ops[0]>>1&3])
		for i, op := range ops[1:] {
			m.insert(int(op>>7), uint64(op&0x7f)%uint64(1+len(ops)/4), ops[i:min(len(ops), i+1+int(op&3))])
		}
		m.check()
	})
}
