package central

import (
	"math/rand"
	"testing"

	"scrub/internal/event"
	"scrub/internal/slab"
)

// bucketReplay replays the join index's Head == 0 checks outside the
// window: the hash seed is drawn per process, so which runs find their
// bucket empty — and keep no link word — is known only by threading the
// same hashes, in arrival order, through an index split the same way. The
// i-th run is threaded at address i and its link kept in next[i].
type bucketReplay struct {
	ix     slab.Index
	hashes []uint64
	next   []uint32
}

// add threads the next buffered run's hash and reports whether its bucket
// held a run already: whether the run keeps a link word.
func (r *bucketReplay) add(hash uint64) (linked bool) {
	if r.ix.Full() {
		var chain []uint32
		for link := r.ix.Split(); link != 0; link = r.next[link-1] {
			chain = append(chain, link)
		}
		for i := len(chain) - 1; i >= 0; i-- {
			at := chain[i] - 1
			r.next[at] = r.ix.Reinsert(at, r.hashes[at])
		}
	}
	next := r.ix.Insert(uint32(len(r.hashes)), hash)
	r.hashes, r.next = append(r.hashes, hash), append(r.next, next)
	return next != 0
}

// TestJoinRunHeaderIsMinimal: a buffered join run keeps only the header
// its chain cannot supply. N requests, each one bid and k exclusions, are
// buffered bid first and exclusions first, through many splits of the
// join index; the arena must hold exactly the sum of the layout's runs —
// a one-byte tag, a link word unless the run found its bucket empty, the
// request id inline unless a partner already holds it (then a 4-byte ref
// to that partner), and the columns: none of bid's, exclusion's reason
// inline once and a one-byte string ref after.
func TestJoinRunHeaderIsMinimal(t *testing.T) {
	const n = 400
	for _, bidFirst := range []bool{true, false} {
		name := "exclusions-first"
		if bidFirst {
			name = "bid-first"
		}
		t.Run(name, func(t *testing.T) {
			c := newJoinCase(t, reasonJoinQ)
			var replay bucketReplay
			want, linkless, refs := 0, 0, 0
			reasons := 0
			buffer := func(in joinIn, partnered bool) {
				c.send(in)
				size := 1 + 8 // tag, request id
				if replay.add(hashID(in.req)<<1 | uint64(in.side)) {
					size += 4
				} else {
					linkless++
				}
				if partnered {
					size -= 4
					refs++
				}
				if in.side == 1 {
					size++ // the string ref
					if reasons == 0 {
						size += len(event.AppendValue(nil, event.Str("geo"))) - 1
					}
					reasons++
				}
				want += size
			}
			for i := 0; i < n; i++ {
				req, k := uint64(1000+i), 1+i%3
				if bidFirst {
					buffer(joinIn{side: 0, req: req}, false)
				}
				for j := 0; j < k; j++ {
					buffer(joinIn{side: 1, req: req, s: "geo"}, bidFirst)
				}
				if !bidFirst {
					buffer(joinIn{side: 0, req: req}, true)
				}
			}
			c.inspect(func(ws *winState) {
				written := 0
				for _, chunk := range ws.arena.Chunks() {
					written += len(chunk)
				}
				if ws.join.Bytes() < 4*16<<3 {
					t.Fatalf("%d bytes of heads: the index went through fewer than three rounds of splits", ws.join.Bytes())
				}
				if linkless == 0 || linkless == len(c.feed) {
					t.Fatalf("%d of %d runs end their chain: the replay tests nothing", linkless, len(c.feed))
				}
				if written != want {
					t.Errorf("%d runs (%d linkless, %d with a ref) in %d arena bytes; the layout's sum is %d", len(c.feed), linkless, refs, written, want)
				}
			})
			c.check()
		})
	}
}

// checkChains requires of the join index, as it stands, that every chain
// runs newest first through runs of one bucket and side, reaches every run
// threaded into its bucket, and ends in the only run that holds no link:
// no run threaded before a linkless run shares its bucket.
func checkChains(t *testing.T, ws *winState, p *Plan) {
	t.Helper()
	runs := map[uint32]int{} // bucket → runs threaded into it
	for k, chunk := range ws.arena.Chunks() {
		for off := 0; off < len(chunk); {
			at, b := slab.Addr(k, off), chunk[off:]
			h := parseJoin(b)
			bucket := ws.join.Bucket(hashID(ws.requestID(b, h))<<1 | uint64(h.flags&runSide))
			if h.link == 0 && runs[bucket] > 0 {
				t.Fatalf("the linkless run at %#x follows %d runs of its bucket: it cuts their chain", at, runs[bucket])
			}
			runs[bucket]++
			w := len(p.Columns[h.flags&runSide])
			off += h.cols + ws.unpackJoin(make([]event.Value, w), b[h.cols:], w)
		}
	}
	for bucket, n := range runs {
		reached := 0
		for link, prev := ws.join.Head(uint64(bucket)), uint32(0); link != 0; reached++ {
			if prev != 0 && link >= prev {
				t.Fatalf("bucket %d: the run at %#x links to %#x: not newest first", bucket, prev-1, link-1)
			}
			b := ws.arena.Tail(link - 1)
			h := parseJoin(b)
			if own := ws.join.Bucket(hashID(ws.requestID(b, h))<<1 | uint64(h.flags&runSide)); own != bucket {
				t.Fatalf("bucket %d: the run at %#x belongs to bucket %d", bucket, link-1, own)
			}
			prev, link = link, h.next(b)
		}
		if reached != n {
			t.Fatalf("bucket %d: its chain reaches %d of its %d runs", bucket, reached, n)
		}
	}
}

// TestJoinChainsEndInLinklessRuns: after every split of the join index,
// and at the end, the chains are whole — a run that found its bucket empty
// and holds no link is still its chain's last — with both sides' tuples
// interleaved and request ids repeating on both, so runs hold refs too.
func TestJoinChainsEndInLinklessRuns(t *testing.T) {
	c := newJoinCase(t, bothJoinQ)
	rng := rand.New(rand.NewSource(11))
	splits := 0
	for i := 0; i < 3000; i++ {
		in := joinIn{side: rng.Intn(2), req: uint64(rng.Intn(1200))}
		if in.side == 0 {
			in.s = "us"
		} else {
			in.s = sixReasons[rng.Intn(len(sixReasons))]
		}
		var full bool
		c.inspect(func(ws *winState) { full = ws.join.Full() })
		c.send(in)
		if full {
			splits++
			c.inspect(func(ws *winState) { checkChains(t, ws, &c.p) })
		}
	}
	c.inspect(func(ws *winState) {
		checkChains(t, ws, &c.p)
		c.runs(ws)
	})
	if splits < 2900 {
		t.Fatalf("%d splits", splits)
	}
	c.check()
}
