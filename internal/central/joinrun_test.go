package central

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/slab"
	"scrub/internal/transport"
)

// bucketReplay replays the join index's Head == 0 checks outside the
// window: the hash seed is drawn per process, so which runs find their
// bucket empty — and keep no link word — is known only by threading the
// same hashes, in arrival order, through an index split the same way. Its
// runs are a header and the hash.
type bucketReplay struct {
	ix slab.Index
	a  slab.Arena
}

// add threads the next buffered run's hash and reports whether its bucket
// held a run already: whether the run keeps a link word.
func (r *bucketReplay) add(hash uint64) (linked bool) {
	if r.ix.Full() {
		r.ix.Split(&r.a, func(run []byte, h slab.Header) uint64 { return binary.LittleEndian.Uint64(run[h.Len:]) })
	}
	run := r.ix.AppendHeader(nil, hash, 0)
	linked = slab.ParseHeader(run).Linked
	at, _ := r.a.Append(binary.LittleEndian.AppendUint64(run, hash))
	r.ix.Insert(at, hash)
	return linked
}

// joinHdr is a buffered join run's header as the tests read it: the
// index's header, and where the run's columns begin.
type joinHdr struct {
	slab.Header
	cols int
}

func parseJoin(b []byte) joinHdr {
	h := slab.ParseHeader(b)
	return joinHdr{h, joinCols(h)}
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

// checkChains requires of an index over the runs of arena a, as it
// stands, that every chain runs newest first through runs of one bucket,
// reaches every run threaded into its bucket, and ends in the only run
// that holds no link: no run threaded before a linkless run shares its
// bucket. hash is the owner's hash of a run and size its length, both
// given its header.
func checkChains(t *testing.T, ix *slab.Index, a *slab.Arena, hash func([]byte, slab.Header) uint64, size func([]byte, slab.Header) int) {
	t.Helper()
	runs := map[uint64]int{} // bucket → runs threaded into it
	for k, chunk := range a.Chunks() {
		for off := 0; off < len(chunk); {
			at, b := slab.Addr(k, off), chunk[off:]
			h := slab.ParseHeader(b)
			bucket := ix.Bucket(hash(b, h))
			if !h.Linked && runs[bucket] > 0 {
				t.Fatalf("the linkless run at %#x follows %d runs of its bucket: it cuts their chain", at, runs[bucket])
			}
			runs[bucket]++
			off += size(b, h)
		}
	}
	for bucket, n := range runs {
		reached := 0
		for link, prev := ix.Head(bucket), uint32(0); link != 0; reached++ {
			if prev != 0 && link >= prev {
				t.Fatalf("bucket %d: the run at %#x links to %#x: not newest first", bucket, prev-1, link-1)
			}
			b := a.Tail(link - 1)
			h := slab.ParseHeader(b)
			if own := ix.Bucket(hash(b, h)); own != bucket {
				t.Fatalf("bucket %d: the run at %#x belongs to bucket %d", bucket, link-1, own)
			}
			prev, link = link, h.Next
		}
		if reached != n {
			t.Fatalf("bucket %d: its chain reaches %d of its %d runs", bucket, reached, n)
		}
	}
}

// checkJoinChains checks the chains of the window's join index.
func checkJoinChains(t *testing.T, ws *winState, p *Plan) {
	t.Helper()
	checkChains(t, &ws.join, &ws.arena, ws.joinHash, func(b []byte, h slab.Header) int {
		w, cols := len(p.Columns[h.Bits&runSide]), joinCols(h)
		return cols + ws.unpackJoin(make([]event.Value, w), b[cols:], w)
	})
}

// checkGroupChains checks the chains of the window's group index.
func checkGroupChains(t *testing.T, ws *winState) {
	t.Helper()
	checkChains(t, &ws.groups, &ws.groupRuns, ws.groupHash, func(b []byte, h slab.Header) int {
		n, err := packedLen(b[h.Len:], ws.keyW)
		if err != nil {
			t.Fatal(err)
		}
		return h.Len + n
	})
}

// TestJoinChainsEndInLinklessRuns: after every split of the join index,
// and at the end, the chains are whole — a run that found its bucket empty
// and holds no link is still its chain's last — with both sides' tuples
// interleaved and request ids repeating on both, so runs hold refs too.
// Group runs keep the same rule, and the group index's chains are checked
// the same way: a group-by whose keys repeat, fed a tuple at a time
// through more than a thousand splits.
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
			c.inspect(func(ws *winState) { checkJoinChains(t, ws, &c.p) })
		}
	}
	c.inspect(func(ws *winState) {
		checkJoinChains(t, ws, &c.p)
		c.runs(ws)
	})
	if splits < 2900 {
		t.Fatalf("%d splits", splits)
	}
	c.check()

	e := NewEngine()
	p := buildPlan(t, `select bid.user_id, bid.country, count(*) from bid group by bid.user_id, bid.country window 10s`, 1, 1, 1)
	p.Lateness = time.Hour
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	inspect := func(f func(ws *winState)) {
		e.mu.Lock()
		defer e.mu.Unlock()
		f(e.queries[1].win.GetAll(sec(1))[0])
	}
	splits, linkless := 0, 0
	for i := 0; i < 2000; i++ {
		full := i == 0
		if !full {
			inspect(func(ws *winState) { full = ws.groups.Full() })
		}
		e.HandleBatch(bidBatch(1, "h1", tup(uint64(i), sec(1), event.Int(int64(rng.Intn(3000))), event.Int(0), event.Float(1), event.Str(sixReasons[rng.Intn(2)]))))
		if full {
			splits++
			inspect(func(ws *winState) { checkGroupChains(t, ws) })
		}
	}
	inspect(func(ws *winState) {
		checkGroupChains(t, ws)
		for runs := ws.groupsInOrder(); ; {
			run := runs.next()
			if run == nil {
				break
			}
			if !slab.ParseHeader(run).Linked {
				linkless++
			}
		}
	})
	if splits < 1500 || linkless == 0 {
		t.Fatalf("%d splits of the group index, %d linkless group runs", splits, linkless)
	}
}
