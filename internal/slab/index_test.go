package slab

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// testHash is the hash the index tests thread by: a run's key is the 8
// bytes after its header. clump sends every key to one bucket, whatever the
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
// order. It lays runs out the way an owner does — [header, over the
// run's number] [key, 8 bytes] [body] — and grows an index the way an
// owner does: a bucket at a time, from presize buckets (Grow) or from
// none.
type indexModel struct {
	t      *testing.T
	h      testHash
	a      Arena
	ix     [2]Index
	want   [2]map[uint64][]uint32
	body   map[uint32][]byte // what followed the key in the run at an address
	side   map[uint32]int    // which index threads the run at an address
	splits int
}

func newIndexModel(t *testing.T, h testHash, presize int) *indexModel {
	m := &indexModel{t: t, h: h, want: [2]map[uint64][]uint32{{}, {}}, body: map[uint32][]byte{}, side: map[uint32]int{}}
	if presize > 0 {
		for i := range m.ix {
			m.ix[i].Grow(presize)
			if got := m.ix[i].heads.Len(); got != max(presize, indexMinBuckets) {
				t.Fatalf("Grow(%d) made %d heads", presize, got)
			}
		}
	}
	return m
}

// hashOf is the hash of a run with header h, as Split is given it.
func (m *indexModel) hashOf(run []byte, h Header) uint64 {
	return m.h.of(binary.LittleEndian.Uint64(run[h.Len:]))
}

// hashAt is the hash of the run at address at.
func (m *indexModel) hashAt(at uint32) uint64 {
	b := m.a.Tail(at)
	return m.hashOf(b, ParseHeader(b))
}

// insert threads a run of key and body, numbered by the runs before it:
// its header must hold a link exactly when its bucket holds a run, the
// owner's bits must read back, and so must the header's length.
func (m *indexModel) insert(side int, key uint64, body []byte) {
	ix := &m.ix[side]
	if ix.Full() {
		m.split(side)
	}
	next, seq := ix.Head(m.h.of(key)), uint64(len(m.body))
	run := ix.AppendHeader(nil, m.h.of(key), seq)
	hdr := len(run)
	run = binary.LittleEndian.AppendUint64(run, key)
	run = append(run, body...)
	at, ok := m.a.Append(run)
	if !ok {
		m.t.Fatal("append refused")
	}
	h := ParseHeader(run)
	if h.Next != next || h.Linked != (next != 0) || h.Len != hdr || h.Bits != seq {
		m.t.Fatalf("run %d: header %+v; Head said %d", seq, h, next)
	}
	m.want[side][key] = append(m.want[side][key], at)
	m.body[at], m.side[at] = body, side
	ix.Insert(at, m.h.of(key))
}

// split splits a bucket of side's index and checks what a split must
// keep: the runs of the chain it divides land in at most two buckets
// whose chains hold exactly them, each newest first and each reaching its
// linkless run (one threaded into a bucket that held a run would cut its
// chain), and the heads are at most a chunk more than a head per run.
func (m *indexModel) split(side int) {
	ix := &m.ix[side]
	if ix.heads.Len() == 0 {
		ix.Split(&m.a, m.hashOf)
		if ix.heads.Len() != indexMinBuckets || ix.Full() {
			m.t.Fatalf("side %d: the zero Index split into %d buckets", side, ix.heads.Len())
		}
		return
	}
	var chain []uint32
	for link := *ix.head(uint64(ix.heads.Len()) - ix.lo); link != 0; link = ParseHeader(m.a.Tail(link - 1)).Next {
		chain = append(chain, link)
	}
	ix.Split(&m.a, m.hashOf)
	m.splits++
	buckets := map[uint64]bool{}
	for _, link := range chain {
		buckets[ix.Bucket(m.hashAt(link-1))] = true
	}
	if len(buckets) > 2 {
		m.t.Fatalf("side %d: a split spread one chain over %d buckets", side, len(buckets))
	}
	reached := 0
	for bucket := range buckets {
		reached += m.chain(side, bucket)
	}
	if reached != len(chain) {
		m.t.Fatalf("side %d: the split chain held %d runs, its two buckets %d", side, len(chain), reached)
	}
	if ix.Bytes() > 4*int64(ix.Len()+MaxChunk) {
		m.t.Fatalf("side %d: %d bytes of heads for %d runs", side, ix.Bytes(), ix.Len())
	}
}

// chain walks bucket's chain, requires it to run newest first through
// runs of that bucket, and returns its length. (A linkless run ends its
// chain by its layout; split checks that none was threaded before another.)
func (m *indexModel) chain(side int, bucket uint64) int {
	n := 0
	for link := m.ix[side].Head(bucket); link != 0; n++ {
		next := ParseHeader(m.a.Tail(link - 1)).Next
		if own := m.ix[side].Bucket(m.hashAt(link - 1)); own != bucket {
			m.t.Fatalf("side %d bucket %d: the run at %d belongs to bucket %d", side, bucket, link-1, own)
		}
		if next >= link && next != 0 {
			m.t.Fatalf("side %d bucket %d: the run at %d links to %d, not to an older run", side, bucket, link-1, next-1)
		}
		link = next
	}
	return n
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
		h := ParseHeader(b)
		next, k := h.Next, h.Len
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

// Splitting a bucket at a time — from no buckets, from an eighth of the
// runs, or from exactly as many as each index is to thread (Grow) — with
// repeated keys, bodies of mixed lengths and both sides interleaved in one
// arena, the chains agree with the map, whether the hash spreads the keys
// or sends them all to one bucket.
func TestIndexMatchesMap(t *testing.T) {
	type op struct {
		side int
		key  uint64
		body []byte
	}
	for _, h := range []testHash{{clump: false}, {clump: true}} {
		n := 5000
		if h.clump {
			n = 600 // every lookup walks every run
		}
		rng := rand.New(rand.NewSource(5))
		var ops []op
		var perSide [2]int
		for i := 0; i < n; i++ {
			body := make([]byte, rng.Intn(24))
			rng.Read(body)
			o := op{rng.Intn(2), uint64(rng.Intn(n / 3)), body}
			ops = append(ops, o)
			perSide[o.side]++
		}
		for _, presize := range []int{0, n / 8, -1} {
			m := newIndexModel(t, h, presize)
			if presize < 0 { // exactly as many buckets as runs
				for side := range m.ix {
					m.ix[side].Grow(perSide[side])
				}
			}
			for i, o := range ops {
				m.insert(o.side, o.key, o.body)
				if i&(i+1) == 0 {
					m.check()
				}
			}
			m.check()
			linkless := 0
			for k, chunk := range m.a.Chunks() {
				for off := 0; off < len(chunk); {
					h := ParseHeader(chunk[off:])
					if !h.Linked {
						linkless++
					}
					off += h.Len + 8 + len(m.body[Addr(k, off)])
				}
			}
			switch {
			case presize < 0 && m.splits != 0:
				t.Fatalf("clump=%v: %d splits of indexes grown to their runs", h.clump, m.splits)
			case presize >= 0 && m.splits < n-2*max(presize, indexMinBuckets):
				t.Fatalf("clump=%v presize=%d: %d splits of %d runs: too few to test", h.clump, presize, m.splits, n)
			case linkless == 0:
				t.Fatalf("clump=%v presize=%d: no run ended its chain", h.clump, presize)
			}
		}
	}
}

// The empty index answers lookups and costs nothing; its first Split
// gives it its first round, 16 empty buckets in a 16-head chunk.
func TestIndexZeroValue(t *testing.T) {
	var ix Index
	if ix.Head(12345) != 0 || ix.Len() != 0 || ix.Bytes() != 0 || !ix.Full() {
		t.Fatal("the zero Index is not empty")
	}
	var a Arena
	ix.Split(&a, nil)
	if ix.Head(12345) != 0 || ix.Len() != 0 || ix.Bytes() != 4*indexMinBuckets || ix.Full() {
		t.Fatalf("its first round holds %d runs in %d bytes of heads", ix.Len(), ix.Bytes())
	}
}

// An owner that knows how many runs it holds grows to that in one step:
// exactly max(n, 16) heads, and every run threads without a split.
func TestIndexGrowToCount(t *testing.T) {
	for _, n := range []int{0, 1, indexMinBuckets, indexMinBuckets + 1, 1000, 4096} {
		var fitted Index
		fitted.Grow(n)
		if got, want := fitted.heads.Len(), max(n, indexMinBuckets); got != want {
			t.Errorf("Grow(%d): %d heads, want %d", n, got, want)
		}
		var a Arena
		for i := 0; i < n; i++ {
			if fitted.Full() {
				t.Fatalf("Grow(%d): full after %d runs", n, i)
			}
			at, _ := a.Append(fitted.AppendHeader(nil, uint64(i), 0))
			fitted.Insert(at, uint64(i))
		}
	}
}

// FuzzIndex: the first byte picks the hash and how many buckets the
// indexes start with (none, a quarter, all or four times the runs), every
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
		m := newIndexModel(t, testHash{clump: ops[0]&1 == 1}, []int{0, 1, 4, 16}[ops[0]>>1&3]*len(ops)/4)
		for i, op := range ops[1:] {
			m.insert(int(op>>7), uint64(op&0x7f)%uint64(1+len(ops)/4), ops[i:min(len(ops), i+1+int(op&3))])
		}
		m.check()
	})
}
