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

// joinRun is a buffered run as the window holds it: its length in bytes
// and its values, refs resolved.
type joinRun struct {
	n    int
	side int
	vals []event.Value
}

// joinCase is a query fed tuple by tuple into one window [0 s, 10 s).
type joinCase struct {
	t    *testing.T
	e    *Engine
	p    Plan
	feed []joinIn
	out  collector
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
		c.feed = append(c.feed, x)
	}
}

// window returns the one open window; the caller holds c.e.mu.
func (c *joinCase) window() *winState {
	ws := c.e.queries[1].win.GetAll(sec(1))
	if len(ws) != 1 {
		c.t.Fatalf("%d windows cover 1 s", len(ws))
	}
	return ws[0]
}

// runs walks the window's arena in arrival order, as rethreadJoin does,
// and requires each run to hold the values its tuple was sent with.
func (c *joinCase) runs(ws *winState) []joinRun {
	c.t.Helper()
	var out []joinRun
	for _, chunk := range ws.arena.Chunks() {
		for off := 0; off < len(chunk); {
			run := chunk[off+slab.LinkSize:]
			tag, n := binary.Uvarint(run[8:])
			side := int(tag & 1)
			vals := make([]event.Value, len(c.p.Columns[side]))
			w := ws.unpackJoin(vals, run[8+n:], len(vals))
			out = append(out, joinRun{n: slab.LinkSize + 8 + n + w, side: side, vals: vals})
			off += slab.LinkSize + 8 + n + w
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

// inlineRun is the length of a run with its string written inline.
func inlineRun(s string) int {
	return slab.LinkSize + 8 + 1 + len(event.AppendValue(nil, event.Str(s)))
}

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
				want := 14 // link, request id, tag and the ref
				if i < 6 {
					want = inlineRun(sixReasons[i])
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
			run := binary.LittleEndian.AppendUint64(appendHeader(nil, slab.LinkSize), in.req)
			run = packValues(append(run, 1), []event.Value{event.Str(in.s)}, 1)
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
				want := inlineRun(s)
				if held[s] {
					want = 14
				}
				if first, again := runs[i].n, runs[len(strs)+i].n; first != inlineRun(s) || again != want {
					t.Errorf("%q: runs of %d and %d bytes, want %d and %d", s, first, again, inlineRun(s), want)
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
				want := 14
				if i%2 == 0 {
					want = inlineRun(long)
				} else if i == 1 {
					want = inlineRun("geo")
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
				if r.n == 14 {
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
	// read back after the join index has doubled many times and the first
	// copies' chunk is long past being the arena's newest.
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

// FuzzJoinRun buffers a fuzz-chosen mix of strings (repeated, distinct,
// empty and longer than an arena chunk), ints and NULLs through one
// window's string slots, three bytes a tuple, and probes every tuple back
// by its request id: each value must come back as it was sent, and no run
// may be longer than its inline form.
func FuzzJoinRun(f *testing.F) {
	f.Add([]byte{0, 2, 2, 1, 6, 6, 0, 2, 3, 1, 6, 10})
	f.Add([]byte{1, 255, 2, 1, 6, 255, 1, 2, 255, 0, 7, 7})
	f.Add([]byte{0, 0, 1, 1, 3, 3, 0, 5, 9, 1, 13, 17, 0, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		qr, err := CompileQuery(buildPlan(t, `select bid.country, bid.user_id, exclusion.reason, exclusion.line_item_id, count(*) from bid, exclusion group by bid.country, bid.user_id, exclusion.reason, exclusion.line_item_id window 10s`, 1, 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		qs := &queryState{QueryRuntime: *qr}
		ws := newWinState(&qs.plan, 0)
		value := func(b byte) event.Value {
			switch b % 4 {
			case 0:
				return event.Invalid
			case 1:
				return event.Int(int64(b) - 100)
			case 2:
				return event.Str(sixReasons[int(b>>2)%len(sixReasons)])
			}
			if b == 255 {
				return event.Str(strings.Repeat("L", slab.ArenaMaxChunk))
			}
			return event.Str(strings.Repeat("s", int(b>>2)))
		}
		var sent []transport.Tuple
		for ; len(data) >= 3; data = data[3:] {
			tu := tup(uint64(len(sent)), 0, value(data[1]), value(data[2]))
			side := uint64(data[0] & 1)
			if !(&Engine{}).buffer(qs, ws, side, hashID(tu.RequestID)<<1, &tu, 1) {
				t.Fatal("buffer refused a tuple")
			}
			sent = append(sent, tu)
		}
		find := func(id uint64) []byte {
			for side := uint64(0); side < 2; side++ {
				for link := ws.join.Head(hashID(id)<<1 | side); link != 0; {
					run, next := ws.arena.Linked(link)
					if binary.LittleEndian.Uint64(run) == id {
						return run
					}
					link = next
				}
			}
			return nil
		}
		for i, tu := range sent {
			run := find(tu.RequestID)
			if run == nil {
				t.Fatalf("tuple %d is not found under its request id", i)
			}
			_, n := binary.Uvarint(run[8:])
			got := make([]event.Value, 2)
			if used, inline := ws.unpackJoin(got, run[8+n:], 2), len(packValues(nil, tu.Values, 2)); used > inline {
				t.Fatalf("tuple %d: a run of %d bytes, %d inline", i, used, inline)
			}
			for j := range got {
				if !sameValue(got[j], tu.Values[j]) {
					t.Fatalf("tuple %d value %d reads %v, sent %v", i, j, got[j], tu.Values[j])
				}
			}
		}
	})
}
