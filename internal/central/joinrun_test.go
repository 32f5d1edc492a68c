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
// same hashes, in arrival order, through an index of the same growth.
type bucketReplay struct {
	ix     slab.Index
	hashes []uint64
}

// add threads the next buffered run's hash and reports whether its bucket
// held a run already: whether the run keeps a link word.
func (r *bucketReplay) add(hash uint64) (linked bool) {
	if r.ix.Full() {
		r.ix.Grow(0)
		for _, h := range r.hashes {
			r.ix.Insert(0, h)
		}
	}
	r.hashes = append(r.hashes, hash)
	return r.ix.Insert(0, hash) != 0
}

// TestJoinRunHeaderIsMinimal: a buffered join run keeps only the header
// its chain cannot supply. N requests, each one bid and k exclusions, are
// buffered bid first and exclusions first, through many doublings of the
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
					t.Fatalf("%d bytes of heads: the index doubled fewer than three times", ws.join.Bytes())
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
	mask := uint64(ws.join.Bytes()/4 - 1)
	runs := map[uint64]int{} // bucket → runs threaded into it
	for k, chunk := range ws.arena.Chunks() {
		for off := 0; off < len(chunk); {
			at, b := slab.Addr(k, off), chunk[off:]
			h := parseJoin(b)
			hash := hashID(ws.requestID(b, h))<<1 | uint64(h.flags&runSide)
			if h.link == 0 && runs[hash&mask] > 0 {
				t.Fatalf("the linkless run at %#x follows %d runs of its bucket: it cuts their chain", at, runs[hash&mask])
			}
			runs[hash&mask]++
			off += h.cols + ws.unpackJoin(nil, b[h.cols:], len(p.Columns[h.flags&runSide]))
		}
	}
	for bucket, n := range runs {
		reached := 0
		for link, prev := ws.join.Head(bucket), uint32(0); link != 0; reached++ {
			if prev != 0 && link >= prev {
				t.Fatalf("bucket %d: the run at %#x links to %#x: not newest first", bucket, prev-1, link-1)
			}
			b := ws.arena.Tail(link - 1)
			h := parseJoin(b)
			if own := (hashID(ws.requestID(b, h))<<1 | uint64(h.flags&runSide)) & mask; own != bucket {
				t.Fatalf("bucket %d: the run at %#x belongs to bucket %d", bucket, link-1, own)
			}
			prev, link = link, h.next(b)
		}
		if reached != n {
			t.Fatalf("bucket %d: its chain reaches %d of its %d runs", bucket, reached, n)
		}
	}
}

// TestJoinChainsEndInLinklessRuns: after every doubling of the join index,
// and at the end, the chains are whole — a run that found its bucket empty
// and holds no link is still its chain's last — with both sides' tuples
// interleaved and request ids repeating on both, so runs hold refs too.
func TestJoinChainsEndInLinklessRuns(t *testing.T) {
	c := newJoinCase(t, bothJoinQ)
	rng := rand.New(rand.NewSource(11))
	doublings := 0
	for i := 0; i < 3000; i++ {
		in := joinIn{side: rng.Intn(2), req: uint64(rng.Intn(1200))}
		if in.side == 0 {
			in.s = "us"
		} else {
			in.s = sixReasons[rng.Intn(len(sixReasons))]
		}
		var before int64
		c.inspect(func(ws *winState) { before = ws.join.Bytes() })
		c.send(in)
		c.inspect(func(ws *winState) {
			if ws.join.Bytes() != before {
				doublings++
				checkChains(t, ws, &c.p)
			}
		})
	}
	c.inspect(func(ws *winState) {
		checkChains(t, ws, &c.p)
		c.runs(ws)
	})
	if doublings < 8 {
		t.Fatalf("%d doublings", doublings)
	}
	c.check()
}
