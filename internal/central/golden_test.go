package central

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"scrub/internal/event"
	"scrub/internal/transport"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/partial_*.golden and work.golden from the current tree")

// goldenQueries cover every part of a window's serialized state: grouped
// scalar aggregates of every kind, sketches plus per-host moments
// (ungrouped scalable aggregates), raw rows, a join, and sampling.
var goldenQueries = []string{
	`select exchange_id, count(*), sum(bid_price), avg(bid_price), min(bid_price), max(user_id), count(user_id), sum(user_id) from bid group by exchange_id`,
	`select top_k(exchange_id, 3), count_distinct(user_id), count(*), sum(bid_price) from bid`,
	`select user_id, bid_price from bid`,
	`select exclusion.reason, bid.exchange_id, count(*), sum(bid.bid_price) from bid, exclusion group by exclusion.reason, bid.exchange_id`,
	`select count(*), sum(bid_price) from bid sample events 50%`,
}

// goldenBatches is the fixed input: three hosts, two event types, request
// ids that repeat so the join sees M×N multiplicities, event times over
// two 10 s windows.
func goldenBatches(join bool) []transport.TupleBatch {
	rng := rand.New(rand.NewSource(20180423))
	reasons := []string{"budget", "geo", "frequency-cap", ""}
	var out []transport.TupleBatch
	for round := 0; round < 4; round++ {
		for h := 0; h < 3; h++ {
			host := fmt.Sprintf("host-%d", h)
			var bids, excl []transport.Tuple
			for k := 0; k < 12; k++ {
				req := uint64(rng.Intn(40))
				ts := sec(int64(rng.Intn(20)))
				bids = append(bids, tup(req, ts,
					event.Int(int64(rng.Intn(25))),
					event.Int(int64(rng.Intn(4))),
					event.Float(float64(rng.Intn(1000))/7),
				))
				if rng.Intn(3) > 0 {
					excl = append(excl, tup(req, ts,
						event.Int(int64(rng.Intn(9))),
						event.Str(reasons[rng.Intn(len(reasons))]),
					))
				}
			}
			out = append(out, transport.TupleBatch{QueryID: 1, HostID: host, TypeIdx: 0, Tuples: bids})
			if join {
				out = append(out, transport.TupleBatch{QueryID: 1, HostID: host, TypeIdx: 1, Tuples: excl})
			}
		}
	}
	return out
}

// project narrows a generated tuple to the columns the plan ships, the
// way a host agent would.
func project(p *Plan, b transport.TupleBatch) transport.TupleBatch {
	all := [][]string{{"user_id", "exchange_id", "bid_price"}, {"line_item_id", "reason"}}
	typ := 0
	if p.Types[b.TypeIdx] == "exclusion" {
		typ = 1
	}
	var tuples []transport.Tuple
	for _, t := range b.Tuples {
		var vals []event.Value
		for _, col := range p.Columns[b.TypeIdx] {
			for i, name := range all[typ] {
				if name == col {
					vals = append(vals, t.Values[i])
				}
			}
		}
		tuples = append(tuples, transport.Tuple{RequestID: t.RequestID, TsNanos: t.TsNanos, Values: vals})
	}
	return transport.TupleBatch{QueryID: b.QueryID, HostID: b.HostID, TypeIdx: b.TypeIdx, Tuples: tuples}
}

// TestPartialGolden pins the shard wire format of window state and what a
// coordinator renders from it: the partials two driven shards serialize
// for a fixed input must equal, byte for byte, the ones committed under
// testdata (written by the commit that preceded the slab layout), and
// decoding, merging and rendering them must give the committed rows.
func TestPartialGolden(t *testing.T) {
	for qi, src := range goldenQueries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			p := buildPlan(t, src, 1, 3, 3)
			qr, err := CompileQuery(p)
			if err != nil {
				t.Fatal(err)
			}
			const shards = 2
			drv := make([]*Engine, shards)
			for i := range drv {
				drv[i] = NewEngine()
				if err := drv[i].StartDriven(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range goldenBatches(p.IsJoin()) {
				b = project(&p, b)
				sub := make([][]transport.Tuple, shards)
				for _, tp := range b.Tuples {
					i := tp.RequestID % shards
					sub[i] = append(sub[i], tp)
				}
				for i, tuples := range sub {
					if len(tuples) == 0 {
						continue
					}
					if _, ok := drv[i].ApplyDriven(transport.TupleBatch{
						QueryID: 1, HostID: b.HostID, TypeIdx: b.TypeIdx, Tuples: tuples,
					}); !ok {
						t.Fatal("ApplyDriven: unknown query")
					}
				}
			}

			// wire: per shard, per window: start, length, partial bytes.
			var wire []byte
			merged := make(map[int64]*PartialWindow)
			for _, e := range drv {
				partials, ok := e.DrainDriven(1)
				if !ok {
					t.Fatal("DrainDriven: unknown query")
				}
				for _, ep := range partials {
					wire = binary.AppendVarint(wire, ep.Start)
					wire = binary.AppendUvarint(wire, uint64(len(ep.Data)))
					wire = append(wire, ep.Data...)
					pw, err := qr.DecodePartial(ep.Data)
					if err != nil {
						t.Fatalf("DecodePartial: %v", err)
					}
					if again := reencode(qr.Plan(), pw.ws); !bytes.Equal(again, ep.Data) {
						t.Fatalf("window %d: decode→encode changed the partial (%d → %d bytes)", ep.Start, len(ep.Data), len(again))
					}
					if dst, ok := merged[ep.Start]; ok {
						qr.Merge(dst, pw)
					} else {
						merged[ep.Start] = pw
					}
				}
			}
			var starts []int64
			for start := range merged {
				starts = append(starts, start)
			}
			sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
			var rows strings.Builder
			for _, start := range starts {
				rw := qr.Render(start, merged[start], nil)
				fmt.Fprintf(&rows, "window %d tuples=%d hosts=%d approx=%v bounds=%v\n",
					start, rw.Stats.TuplesIn, rw.Stats.HostsReporting, rw.Approx, rw.ErrBounds)
				for _, r := range rw.Rows {
					fmt.Fprintf(&rows, "  %v\n", r)
				}
			}

			wirePath := filepath.Join("testdata", fmt.Sprintf("partial_q%d.golden", qi))
			rowsPath := filepath.Join("testdata", fmt.Sprintf("partial_q%d.rows.golden", qi))
			if *updateGolden {
				if err := os.WriteFile(wirePath, wire, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(rowsPath, []byte(rows.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantWire, err := os.ReadFile(wirePath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wire, wantWire) {
				t.Errorf("serialized partials differ from %s (%d bytes, want %d)", wirePath, len(wire), len(wantWire))
			}
			wantRows, err := os.ReadFile(rowsPath)
			if err != nil {
				t.Fatal(err)
			}
			if rows.String() != string(wantRows) {
				t.Errorf("rendered rows differ from %s:\n got:\n%s\nwant:\n%s", rowsPath, rows.String(), wantRows)
			}
		})
	}
}

// goldenWindows splits partial_q<qi>.golden into its windows' partials.
func goldenWindows(tb testing.TB, qi int) [][]byte {
	wire, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("partial_q%d.golden", qi)))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for len(wire) > 0 { // per window: start, length, partial bytes
		_, n := binary.Varint(wire)
		size, m := binary.Uvarint(wire[n:])
		out = append(out, wire[n+m:n+m+int(size)])
		wire = wire[n+m+int(size):]
	}
	return out
}

// BenchmarkDecodePartial is what the coordinator pays to decode a shard's
// window partials: one op decodes every window of partial_q<i>.golden
// under its plan, so ns/op is ns per file. q0 is grouped with eight
// aggregates, q1 sketches and moments, q2 raw rows, q3 join groups.
func BenchmarkDecodePartial(b *testing.B) {
	for qi, src := range goldenQueries[:4] {
		b.Run(fmt.Sprintf("q%d", qi), func(b *testing.B) {
			qr, err := CompileQuery(buildPlan(b, src, 1, 3, 3))
			if err != nil {
				b.Fatal(err)
			}
			windows := goldenWindows(b, qi)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, w := range windows {
					if _, err := qr.DecodePartial(w); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// FuzzDecodePartial holds the coordinator to its ShardClient contract on
// the bytes a shard sends it: a partial that does not decode degrades the
// query, it never crashes the merger. Seeded with every golden partial
// under its plan, it feeds DecodePartial arbitrary bytes. Each call must
// return an error or a window; a window it accepts must merge into a
// second decode of itself and render, and its re-encoding must decode to
// a window that renders the same.
func FuzzDecodePartial(f *testing.F) {
	qrs := make([]*QueryRuntime, len(goldenQueries))
	for qi, src := range goldenQueries {
		qr, err := CompileQuery(buildPlan(f, src, 1, 3, 3))
		if err != nil {
			f.Fatal(err)
		}
		qrs[qi] = qr
		for _, w := range goldenWindows(f, qi) {
			f.Add(uint8(qi), w)
		}
	}
	f.Add(uint8(2), []byte{0, 0, 0, 1, 0}) // a group of no key under the raw-rows plan
	f.Fuzz(func(t *testing.T, q uint8, b []byte) {
		qr := qrs[int(q)%len(qrs)]
		pw, err := qr.DecodePartial(b)
		if err != nil {
			return
		}
		// Encoded before the render, which gives an ungrouped window with
		// no group its empty one.
		again, err := qr.DecodePartial(reencode(qr.Plan(), pw.ws))
		if err != nil {
			t.Fatalf("the re-encoding of an accepted partial does not decode: %v", err)
		}
		want, got := qr.Render(0, pw, nil), qr.Render(0, again, nil)
		if want.Stats != got.Stats || want.Approx != got.Approx || !sameRows(want.Rows, got.Rows) || len(want.ErrBounds) != len(got.ErrBounds) {
			t.Fatalf("re-encoded partial renders\n %+v\nthe accepted one\n %+v", got, want)
		}
		for i := range want.ErrBounds {
			if math.Float64bits(want.ErrBounds[i]) != math.Float64bits(got.ErrBounds[i]) {
				t.Fatalf("re-encoded partial's bound %d is %v, the accepted one's %v", i, got.ErrBounds[i], want.ErrBounds[i])
			}
		}
		dst, err := qr.DecodePartial(b)
		if err != nil {
			t.Fatalf("accepted bytes do not decode a second time: %v", err)
		}
		src, _ := qr.DecodePartial(b)
		qr.Merge(dst, src)
		qr.Render(0, dst, nil)
	})
}
