package central

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/slab"
	"scrub/internal/transport"
)

// The two join shapes the string slots serve: strings on the buffered
// exclusion side only (scrubbench's join), and on both sides.
const (
	reasonJoinQ = `select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 10s`
	bothJoinQ   = `select bid.country, exclusion.reason, count(*) from bid, exclusion group by bid.country, exclusion.reason window 10s`
)

var sixReasons = []string{"budget", "frequency_cap", "geo", "blocklist", "pacing", "creative"}

// joinIn is one tuple of a join feed: its side, request id and string
// column (bid's country under bothJoinQ; under reasonJoinQ a bid has no
// column and s is unused).
type joinIn struct {
	side int
	req  uint64
	s    string
}

func (in joinIn) tuple(p *Plan) transport.Tuple {
	t := tup(in.req, sec(1))
	if len(p.Columns[in.side]) > 0 {
		t.Values = []event.Value{event.Str(in.s)}
	}
	return t
}

// joinRun is a buffered run as the window holds it: its length and its
// header's in bytes, and its values, refs resolved.
type joinRun struct {
	n, hdr int
	side   int
	vals   []event.Value
}

// joinCase is a query fed tuple by tuple into one window [0 s, 10 s).
// hdrs is the header length each run must have (header).
type joinCase struct {
	t      *testing.T
	e      *Engine
	p      Plan
	feed   []joinIn
	hdrs   []int
	replay bucketReplay
	out    collector
}

func newJoinCase(t *testing.T, query string) *joinCase {
	t.Helper()
	e := NewEngine()
	p := buildPlan(t, query, 1, 1, 1)
	p.Lateness = time.Hour
	c := &joinCase{t: t, e: e, p: p}
	if err := e.StartQuery(p, c.out.emit); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *joinCase) send(in ...joinIn) {
	for _, x := range in {
		c.e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h1", TypeIdx: uint8(x.side), Tuples: []transport.Tuple{x.tuple(&c.p)}})
		c.hdrs = append(c.hdrs, c.header(x))
		c.feed = append(c.feed, x)
	}
}

// header is the header a run of x takes after the feed so far: a one-byte
// tag (weight 1, no time kept), a link unless x's bucket was empty, and
// its request id — or a 4-byte ref, when a partner was buffered before it.
func (c *joinCase) header(x joinIn) int {
	n := 1 + 8
	if c.replay.add(hashID(x.req)<<1 | uint64(x.side)) {
		n += slab.LinkSize
	}
	for _, y := range c.feed {
		if y.side != x.side && y.req == x.req {
			return n - 4
		}
	}
	return n
}

// window returns the one open window; the caller holds c.e.mu.
func (c *joinCase) window() *winState {
	ws := c.e.queries[1].win.GetAll(sec(1))
	if len(ws) != 1 {
		c.t.Fatalf("%d windows cover 1 s", len(ws))
	}
	return ws[0]
}

// runs walks the window's arena in arrival order and requires each run to
// have the header c.hdrs gives it and to hold the values its tuple was
// sent with.
func (c *joinCase) runs(ws *winState) []joinRun {
	c.t.Helper()
	var out []joinRun
	for _, chunk := range ws.arena.Chunks() {
		for off := 0; off < len(chunk); {
			h := parseJoin(chunk[off:])
			side := int(h.Bits & runSide)
			vals := make([]event.Value, len(c.p.Columns[side]))
			n := h.cols + ws.unpackJoin(vals, chunk[off+h.cols:], len(vals))
			out = append(out, joinRun{n: n, hdr: h.cols, side: side, vals: vals})
			off += n
		}
	}
	if len(out) != len(c.feed) {
		c.t.Fatalf("%d runs buffered for %d tuples", len(out), len(c.feed))
	}
	for i, r := range out {
		want := c.feed[i].tuple(&c.p).Values
		if r.side != c.feed[i].side || len(r.vals) != len(want) {
			c.t.Fatalf("run %d: side %d, %d values; sent side %d, %d values", i, r.side, len(r.vals), c.feed[i].side, len(want))
		}
		if r.hdr != c.hdrs[i] {
			c.t.Fatalf("run %d: a header of %d bytes, want %d", i, r.hdr, c.hdrs[i])
		}
		for j := range want {
			if !sameValue(r.vals[j], want[j]) {
				c.t.Fatalf("run %d value %d reads %v, sent %v", i, j, r.vals[j], want[j])
			}
		}
	}
	return out
}

// inspect runs f on the open window under the engine lock.
func (c *joinCase) inspect(f func(ws *winState)) {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	f(c.window())
}

// check stops the query and requires its one window's groups to be the
// nested-loop join's of the feed: what every string inline renders.
func (c *joinCase) check() {
	c.t.Helper()
	want := map[string]int64{}
	for i, a := range c.feed {
		for _, b := range c.feed[:i] {
			if a.side == b.side || a.req != b.req {
				continue
			}
			bid, ex := a, b
			if a.side == 1 {
				bid, ex = b, a
			}
			key := ex.s
			if len(c.p.Columns[0]) > 0 {
				key = bid.s + "|" + ex.s
			}
			want[key]++
		}
	}
	c.e.StopQuery(1)
	wins := c.out.all()
	if len(wins) != 1 {
		c.t.Fatalf("stop: %d windows", len(wins))
	}
	got := map[string]int64{}
	for _, row := range wins[0].Rows {
		var parts []string
		for _, v := range row[:len(row)-1] {
			s, _ := v.AsStr()
			parts = append(parts, s)
		}
		n, _ := row[len(row)-1].AsInt()
		got[strings.Join(parts, "|")] = n
	}
	if len(got) != len(want) {
		c.t.Fatalf("%d groups, the nested loop has %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			c.t.Errorf("group %.40q: count %d, the nested loop %d", k, got[k], n)
		}
	}
}

// strLen is the length of s written inline.
func strLen(s string) int { return len(event.AppendValue(nil, event.Str(s))) }

// TestJoinStringRefs: a string the window already holds inline is
// buffered as a one-byte ref to that copy, and nothing else changes: every
// run reads back the values it was sent with, and the window renders the
// groups it renders with every string inline.
func TestJoinStringRefs(t *testing.T) {
	t.Run("repeated", func(t *testing.T) {
		c := newJoinCase(t, reasonJoinQ)
		for i := 0; i < 1000; i++ {
			c.send(joinIn{side: 1, req: uint64(i), s: sixReasons[i%6]})
		}
		c.inspect(func(ws *winState) {
			for i, r := range c.runs(ws) {
				want := r.hdr + 1 // the header and the ref
				if i < 6 {
					want = r.hdr + strLen(sixReasons[i])
				}
				if r.n != want {
					t.Fatalf("run %d (%q) is %d bytes, want %d", i, sixReasons[i%6], r.n, want)
				}
			}
		})
		for i := 0; i < 1000; i += 3 {
			c.send(joinIn{side: 0, req: uint64(i)})
		}
		c.check()
	})

	t.Run("distinct", func(t *testing.T) {
		c := newJoinCase(t, reasonJoinQ)
		var inline slab.Arena
		var written int
		for i := 0; i < 1000; i++ {
			in := joinIn{side: 1, req: uint64(i), s: fmt.Sprintf("reason-%04d", i)}
			c.send(in)
			run := packValues(make([]byte, c.hdrs[i]), []event.Value{event.Str(in.s)}, 1)
			inline.Append(run)
			written += len(run)
		}
		c.inspect(func(ws *winState) {
			var got int
			for _, r := range c.runs(ws) {
				got += r.n
			}
			if got != written || ws.arena.Bytes() != inline.Bytes() {
				t.Errorf("the arena holds %d bytes written in %d; inline, %d in %d", got, ws.arena.Bytes(), written, inline.Bytes())
			}
		})
		for i := 0; i < 1000; i += 7 {
			c.send(joinIn{side: 0, req: uint64(i)})
		}
		c.check()
	})

	// Six strings that hash to one slot: the first four fill its probe,
	// the last two find it full and stay inline. Then 100 more strings, of
	// which some take the table's other slots and the rest find theirs
	// full. In the second round a string is a ref exactly when a slot
	// holds its first copy.
	t.Run("full-table-and-collisions", func(t *testing.T) {
		c := newJoinCase(t, reasonJoinQ)
		home := func(s string) uint64 { return hashKey(event.AppendValue(nil, event.Str(s))) % strSlots }
		var strs []string
		for i := 0; len(strs) < 6; i++ {
			if s := fmt.Sprintf("collide-%d", i); home(s) == home("collide-0") {
				strs = append(strs, s)
			}
		}
		for i := 0; i < 100; i++ {
			strs = append(strs, fmt.Sprintf("other-%d", i))
		}
		req := uint64(0)
		for round := 0; round < 2; round++ {
			for _, s := range strs {
				c.send(joinIn{side: 1, req: req, s: s})
				req++
			}
		}
		c.inspect(func(ws *winState) {
			held := map[string]bool{}
			for _, addr := range ws.strs {
				if addr == 0 {
					continue
				}
				v, _, err := event.DecodeValue(ws.arena.Tail(strAt(addr)))
				if err != nil {
					t.Fatal(err)
				}
				s, _ := v.AsStr()
				held[s] = true
			}
			for _, s := range strs[:4] {
				if !held[s] {
					t.Errorf("%q, among the first four to its slot, holds none", s)
				}
			}
			for _, s := range strs[4:6] {
				if held[s] {
					t.Errorf("%q holds a slot past its probe", s)
				}
			}
			if len(held) > strSlots || len(strs)-len(held) < len(strs)-strSlots {
				t.Errorf("%d strings hold a slot of %d", len(held), strSlots)
			}
			runs := c.runs(ws)
			for i, s := range strs {
				first, again := runs[i], runs[len(strs)+i]
				want := again.hdr + strLen(s)
				if held[s] {
					want = again.hdr + 1
				}
				if first.n != first.hdr+strLen(s) || again.n != want {
					t.Errorf("%q: runs of %d and %d bytes, want %d and %d", s, first.n, again.n, first.hdr+strLen(s), want)
				}
			}
		})
		for i := uint64(0); i < req; i += 5 {
			c.send(joinIn{side: 0, req: i})
		}
		c.check()
	})

	// A run longer than slab.ArenaMaxChunk has a chunk of its own, and its
	// string claims no slot: the string stays inline every time.
	t.Run("oversize-run", func(t *testing.T) {
		c := newJoinCase(t, reasonJoinQ)
		long := strings.Repeat("x", slab.ArenaMaxChunk+100)
		for i := 0; i < 6; i++ {
			s := "geo"
			if i%2 == 0 {
				s = long
			}
			c.send(joinIn{side: 1, req: uint64(i), s: s})
		}
		c.inspect(func(ws *winState) {
			for i, r := range c.runs(ws) {
				want := r.hdr + 1
				if i%2 == 0 {
					want = r.hdr + strLen(long)
				} else if i == 1 {
					want = r.hdr + strLen("geo")
				}
				if r.n != want {
					t.Errorf("run %d is %d bytes, want %d", i, r.n, want)
				}
			}
			claimed := 0
			for _, addr := range ws.strs {
				if addr != 0 {
					claimed++
				}
			}
			if claimed != 1 {
				t.Errorf("%d slots claimed, want geo's alone", claimed)
			}
		})
		for i := 0; i < 6; i++ {
			c.send(joinIn{side: 0, req: uint64(i)})
		}
		c.check()
	})

	// A slot keeps 24 bits of address: a copy past the arena's first
	// 16 MiB claims nothing.
	t.Run("address-bits", func(t *testing.T) {
		ws := new(winState)
		ws.stringSlots()
		run := make([]byte, 20)
		for _, tc := range []struct {
			chunk int
			want  bool
		}{{strAddr>>13 - 1, true}, {strAddr>>13 + 1, false}} {
			at := slab.Addr(tc.chunk, 100)
			ws.claimStrings(at, run, []uint32{0xab<<24 | 13<<6 | uint32(tc.chunk%strSlots)})
			if got := ws.strs[tc.chunk%strSlots]; (got != 0) != tc.want || tc.want && (strAt(got) != at+13 || got>>24 != 0xab) {
				t.Errorf("a copy at %#x: slot %#x", at+13, got)
			}
		}
	})

	// Strings on both sides share the window's slots; either side may
	// arrive first, and request ids repeat, so a request joins M×N.
	t.Run("both-sides", func(t *testing.T) {
		c := newJoinCase(t, bothJoinQ)
		rng := rand.New(rand.NewSource(5))
		countries := []string{"us", "de", "geo"} // geo is a reason too
		for i := 0; i < 600; i++ {
			in := joinIn{side: rng.Intn(2), req: uint64(rng.Intn(150))}
			if in.side == 0 {
				in.s = countries[rng.Intn(len(countries))]
			} else {
				in.s = sixReasons[rng.Intn(len(sixReasons))]
			}
			c.send(in)
		}
		c.inspect(func(ws *winState) {
			refs := 0
			for _, r := range c.runs(ws) {
				if r.n == r.hdr+1 {
					refs++
				}
			}
			if refs < 590 {
				t.Errorf("%d of 600 runs hold a ref; 8 distinct strings are inline", refs)
			}
		})
		c.check()
	})

	// Every exclusion is buffered before any bid probes, so the refs are
	// read back after the join index has split thousands of buckets and
	// the first copies' chunk is long past being the arena's newest.
	t.Run("after-rethread", func(t *testing.T) {
		c := newJoinCase(t, reasonJoinQ)
		for i := 0; i < 3000; i++ {
			c.send(joinIn{side: 1, req: uint64(i), s: sixReasons[(i*7)%6]})
		}
		c.inspect(func(ws *winState) {
			c.runs(ws)
			if ws.join.Bytes() < 4*3000 || len(ws.arena.Chunks()) < 5 {
				t.Errorf("%d index head bytes and %d chunks for 3000 runs", ws.join.Bytes(), len(ws.arena.Chunks()))
			}
			for _, addr := range ws.strs {
				if addr != 0 && strAt(addr) >= slab.Addr(1, 0) {
					t.Errorf("a first copy lies at %#x, past the first chunk", strAt(addr))
				}
			}
		})
		for i := 0; i < 3000; i += 2 {
			c.send(joinIn{side: 0, req: uint64(i)})
		}
		c.check()
	})
}

// FuzzJoinRun feeds a fuzz-chosen join into one window, four bytes a
// tuple: its side and request id (one of a few, so ids repeat on both
// sides and either side may come first), its weight (1–64, as the
// governor sets it) and its two values — an int or NULL, and a string
// repeated, distinct, empty or longer than an arena chunk, or NULL. An odd first byte makes
// the plan keep both sides' times. Every probe must find exactly the
// nested-loop join's partners, in arrival order (the raw rows, before a
// render sorts them); every
// run must read back as sent — side, weight, time, request id, values —
// with a link exactly when its bucket held a run, a ref exactly when a
// partner came before it (and the ref must name a run that holds the id),
// its columns no longer than the same values written inline, and the run
// no longer than the parent layout's form, [link] [request id]
// [tag<<1 | side] [columns], but for a byte its tag's two flag bits may
// add.
func FuzzJoinRun(f *testing.F) {
	f.Add([]byte{0, 2, 2, 1, 6, 6, 0, 2, 3, 1, 6, 10})
	f.Add([]byte{1, 255, 2, 1, 6, 255, 1, 2, 255, 0, 7, 7})
	f.Add([]byte{0, 0, 1, 1, 3, 3, 0, 5, 9, 1, 13, 17, 0, 2, 2})
	many := rand.New(rand.NewSource(7))
	for _, n := range []int{300, 700} { // past several rounds of splits of the index
		data := make([]byte, 1+4*n)
		many.Read(data)
		data[0] = byte(n / 100)
		f.Add(data)
	}
	const (
		untimed = `select bid.user_id, bid.country, exclusion.line_item_id, exclusion.reason from bid, exclusion window 10s`
		timed   = `select bid.ts, bid.user_id, bid.country, exclusion.ts, exclusion.line_item_id, exclusion.reason from bid, exclusion window 10s`
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		q := untimed
		if data[0]&1 == 1 {
			q = timed
		}
		e := NewEngine()
		p := buildPlan(t, q, 1, 1, 1)
		p.Lateness = time.Hour
		if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
			t.Fatal(err)
		}
		// Each side projects an int column, then a string column.
		ival := func(b byte) event.Value {
			if b%3 == 0 {
				return event.Invalid
			}
			return event.Int(int64(b) - 100)
		}
		sval := func(b byte) event.Value {
			switch b % 4 {
			case 0:
				return event.Invalid
			case 1:
				return event.Str("")
			case 2:
				return event.Str(sixReasons[int(b>>2)%len(sixReasons)])
			}
			if b == 255 {
				return event.Str(strings.Repeat("L", slab.ArenaMaxChunk))
			}
			return event.Str(strings.Repeat("s", int(b>>2)))
		}
		type sent struct {
			side int
			w    uint64
			tu   transport.Tuple
		}
		var feed []sent
		var want [][]event.Value
		reqs := uint64(1 + len(data)/16)
		for data = data[1:]; len(data) >= 4; data = data[4:] {
			in := sent{side: int(data[0] & 1), w: 1 + uint64(data[1])%64}
			in.tu = tup(uint64(data[0]>>1)%reqs, int64(len(feed))*7919, ival(data[2]), sval(data[3]))
			for _, o := range feed {
				if o.side != in.side && o.tu.RequestID == in.tu.RequestID {
					bid, ex := o.tu, in.tu
					if in.side == 0 {
						bid, ex = in.tu, o.tu
					}
					var row []event.Value
					if q == timed {
						row = append(row, event.TimeNanos(bid.TsNanos))
					}
					row = append(row, bid.Values...)
					if q == timed {
						row = append(row, event.TimeNanos(ex.TsNanos))
					}
					want = append(want, append(row, ex.Values...))
				}
			}
			e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h", TypeIdx: uint8(in.side), EffRate: 1 / float64(in.w), Tuples: []transport.Tuple{in.tu}})
			feed = append(feed, in)
		}

		e.mu.Lock()
		qs := e.queries[1]
		var rows [][]event.Value // the joined rows, in the order the probes found them
		if wins := qs.win.GetAll(0); len(feed) > 0 {
			if len(wins) != 1 {
				t.Fatalf("%d windows hold %d tuples", len(wins), len(feed))
			}
			ws, span := wins[0], qs.comp.span
			var replay bucketReplay
			i := 0
			for k, chunk := range ws.arena.Chunks() {
				for off := 0; off < len(chunk); i++ {
					if i >= len(feed) {
						t.Fatalf("more runs than the %d tuples sent", len(feed))
					}
					in, b := feed[i], chunk[off:]
					h := parseJoin(b)
					bits, _ := binary.Uvarint(b) // the owner's bits and the linked flag
					tag, side := h.Bits>>runFlags, int(h.Bits&runSide)
					w, dt := tag+1, uint64(0)
					if span[side] > 0 {
						w, dt = tag/span[side]+1, tag%span[side]
					}
					if side != in.side || w != in.w || span[side] > 0 && int64(dt) != in.tu.TsNanos {
						t.Fatalf("run %d: side %d, weight %d, time %d; sent side %d, weight %d at %d", i, side, w, dt, in.side, in.w, in.tu.TsNanos)
					}
					partnered := false
					for _, o := range feed[:i] {
						partnered = partnered || o.side != in.side && o.tu.RequestID == in.tu.RequestID
					}
					linked := replay.add(hashID(in.tu.RequestID)<<1 | uint64(in.side))
					if h.Linked != linked || (h.Bits&runRef != 0) != partnered {
						t.Fatalf("run %d: flags %02b; its bucket held a run: %v, a partner came first: %v", i, h.Bits&3, linked, partnered)
					}
					id, held := ws.requestID(b, h.Header), holder(b, h.Header, slab.Addr(k, off)+1)-1
					if id != in.tu.RequestID || partnered && parseJoin(ws.arena.Tail(held)).Bits&runRef != 0 {
						t.Fatalf("run %d reads request id %d (held at %#x), sent %d", i, id, held, in.tu.RequestID)
					}
					got := make([]event.Value, 2)
					cols := ws.unpackJoin(got, b[h.cols:], 2)
					for j := range got {
						if !sameValue(got[j], in.tu.Values[j]) {
							t.Fatalf("run %d value %d reads %v, sent %v", i, j, got[j], in.tu.Values[j])
						}
					}
					if inline := len(packValues(nil, in.tu.Values, 2)); cols > inline {
						t.Fatalf("run %d: columns of %d bytes, %d inline", i, cols, inline)
					}
					parent := slab.LinkSize + 8 + uvarintLen(tag<<1) + cols
					if grown := uvarintLen(bits) - uvarintLen(tag<<1); h.cols+cols > parent+grown || grown > 1 {
						t.Fatalf("run %d: %d bytes, %d in the parent's layout (its tag %d bytes longer)", i, h.cols+cols, parent, grown)
					}
					off += h.cols + cols
				}
			}
			if i != len(feed) {
				t.Fatalf("%d runs for %d tuples", i, len(feed))
			}
			rows = ws.rawRows(len(p.Select))
		}
		e.mu.Unlock()
		if len(rows) != len(want) {
			t.Fatalf("%d joined rows, the nested loop has %d", len(rows), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if !sameValue(rows[i][j], want[i][j]) {
					t.Fatalf("row %d column %d reads %v, the nested loop %v", i, j, rows[i][j], want[i][j])
				}
			}
		}
	})
}

// uvarintLen is the length of x as a uvarint.
func uvarintLen(x uint64) int { return len(binary.AppendUvarint(nil, x)) }
