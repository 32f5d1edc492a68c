package central

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scrub/internal/event"
	"scrub/internal/slab"
	"scrub/internal/transport"
)

// packValues appends the wire form of vals to dst as a run of exactly w
// values, as a join run with every string inline, a group key or a raw row
// is written: a longer vals is cut, a shorter one is padded with Invalid
// tags.
func packValues(dst []byte, vals []event.Value, w int) []byte {
	for i := 0; i < w; i++ {
		if i < len(vals) {
			dst = event.AppendValue(dst, vals[i])
		} else {
			dst = append(dst, byte(event.KindInvalid))
		}
	}
	return dst
}

// sameValue is equality for round-trip purposes: Value.Equal, except that
// Invalid equals Invalid and floats compare by their bits (NaN, −0), in
// lists too.
func sameValue(a, b event.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case event.KindInvalid:
		return true
	case event.KindFloat:
		x, _ := a.AsFloat()
		y, _ := b.AsFloat()
		return math.Float64bits(x) == math.Float64bits(y)
	case event.KindList:
		x, _ := a.AsList()
		y, _ := b.AsList()
		if a.Elem() != b.Elem() || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// checkPackedRun packs vals as a run of width w and requires the run to
// unpack — owned, and aliased as a join run without refs is — to the same
// values, to re-pack to the same bytes, and to measure its own length.
func checkPackedRun(t *testing.T, vals []event.Value, w int) {
	t.Helper()
	packed := packValues(nil, vals, w)
	if n, err := packedLen(packed, w); err != nil || n != len(packed) {
		t.Fatalf("packedLen = %d, %v; the run is %d bytes", n, err, len(packed))
	}
	for _, alias := range []bool{true, false} {
		out := make([]event.Value, w)
		unpack := unpackValues
		if alias {
			unpack = func(out []event.Value, b []byte) int { return new(winState).unpackJoin(out, b, len(out)) }
		}
		if n := unpack(out, packed); n != len(packed) {
			t.Fatalf("alias=%v: unpacked %d of %d bytes", alias, n, len(packed))
		}
		for i := range out {
			want := event.Invalid // the padding of a short tuple
			if i < len(vals) {
				want = vals[i]
			}
			if !sameValue(out[i], want) {
				t.Fatalf("alias=%v: value %d came back as %v (%v), packed %v (%v)", alias, i, out[i], out[i].Kind(), want, want.Kind())
			}
		}
		if again := packValues(nil, out, w); !bytes.Equal(again, packed) {
			t.Fatalf("alias=%v: re-packing changed the bytes", alias)
		}
	}
}

func TestPackedRunRoundTrip(t *testing.T) {
	long := strings.Repeat("x", slab.ArenaMaxChunk+17)
	every := []event.Value{
		event.Invalid, event.Bool(true), event.Bool(false),
		event.Int(0), event.Int(math.MinInt64), event.Int(math.MaxInt64),
		event.Float(math.NaN()), event.Float(math.Copysign(0, -1)), event.Float(math.Inf(-1)),
		event.Float(math.Float64frombits(0x7ff8000000000001)), // a NaN with a payload
		event.Str(""), event.Str("budget"), event.Str(long),
		event.TimeNanos(0), event.TimeNanos(-1), event.TimeNanos(1 << 60),
		event.IntList(), event.IntList(1, -2, 3), event.StrList("", "geo", long),
		event.FloatList(math.NaN(), 0),
		event.List(event.KindList, event.IntList(1), event.StrList("a", "b")), // nested
	}
	checkPackedRun(t, every, len(every))
	checkPackedRun(t, every, len(every)+3) // a tuple shorter than the plan's width is padded
	checkPackedRun(t, every, 4)            // a longer one is cut
	checkPackedRun(t, nil, 0)
	for _, v := range every {
		checkPackedRun(t, []event.Value{v}, 1)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		vals := make([]event.Value, rng.Intn(6))
		for j := range vals {
			vals[j] = every[rng.Intn(len(every))]
		}
		checkPackedRun(t, vals, rng.Intn(8))
	}
}

// Runs come back from an arena as they went in, in order, whichever chunk
// they landed in — including a run with a chunk of its own.
func TestPackedRowsWalkArena(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	long := event.Str(strings.Repeat("y", 2*slab.ArenaMaxChunk))
	var a slab.Arena
	var want [][]byte
	for i := 0; i < 3000; i++ {
		row := []event.Value{event.Int(int64(i)), event.Str(strings.Repeat("s", rng.Intn(30))), event.Float(float64(i))}
		if i%700 == 350 {
			row[1] = long
		}
		b := packValues(nil, row, 3)
		if _, ok := a.Append(b); !ok {
			t.Fatal("append refused")
		}
		want = append(want, b)
	}
	rows := rowsOf(&a, 3)
	for i, w := range want {
		if got := rows.next(); !bytes.Equal(got, w) {
			t.Fatalf("row %d differs", i)
		}
	}
	if rows.next() != nil {
		t.Fatal("rows past the last")
	}
}

// A join side the plan projects no column of, and whose time it does not
// read, keeps of a tuple only what indexes it: a weight-and-side byte, its
// request id (no partner holds it) and a link unless its bucket was empty
// when it was threaded — 9 or 13 bytes a run, as the replayed buckets say.
func TestZeroColumnSideKeepsHeaderOnly(t *testing.T) {
	e := NewEngine()
	p := buildPlan(t, `select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 10s`, 1, 1, 1)
	p.Lateness = 3600e9
	if len(p.Columns[0]) != 0 {
		t.Fatalf("the plan projects %v of bid; the test needs a side with no columns", p.Columns[0])
	}
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	var bids []transport.Tuple
	var replay bucketReplay
	want := 0
	for i := 0; i < 100; i++ {
		bids = append(bids, tup(uint64(i), sec(1)))
		want += 9
		if replay.add(hashID(uint64(i)) << 1) {
			want += 4
		}
	}
	e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h", TypeIdx: 0, Tuples: bids})
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ws := range e.queries[1].win.GetAll(sec(1)) {
		var written int
		for _, c := range ws.arena.Chunks() {
			written += len(c)
		}
		if ws.pendN != 100 || written != want {
			t.Errorf("%d tuples buffered in %d bytes; want 100 in %d", ws.pendN, written, want)
		}
	}
}

// FuzzPackedRun: bytes that measure as a run of w values unpack, and
// re-pack to a run that unpacks to the same values; the decoder's
// canonical output re-packs to itself. Bytes that do not measure are
// rejected by packedLen — which DecodePartial relies on — without a panic.
func FuzzPackedRun(f *testing.F) {
	f.Add(packValues(nil, []event.Value{event.Int(7), event.Str("geo"), event.Float(math.NaN())}, 3), 3)
	f.Add(packValues(nil, []event.Value{event.StrList("a", "b"), event.Invalid}, 4), 4)
	f.Add(packValues(nil, []event.Value{event.TimeNanos(5), event.Bool(true)}, 2), 2)
	f.Add([]byte{byte(event.KindString), 0xff, 0xff, 0xff, 0xff, 0x0f}, 1) // lying string length
	f.Add([]byte{byte(event.KindList), byte(event.KindInt), 3, byte(event.KindString), 0}, 1)
	f.Add([]byte{}, 0)
	// A string ref is a join arena's alone: no partial may carry one.
	ref := []byte{byte(event.KindInt), 1, 2, 3, 4, 5, 6, 7, 8, strRef + 5}
	if _, err := packedLen(ref, 2); err == nil {
		f.Fatal("packedLen accepts a string ref")
	}
	f.Add(ref, 2)
	f.Fuzz(func(t *testing.T, data []byte, w int) {
		if w < 0 || w > 64 {
			return
		}
		n, err := packedLen(data, w)
		if err != nil {
			return
		}
		vals := make([]event.Value, w)
		if got := unpackValues(vals, data); got != n {
			t.Fatalf("packedLen says %d bytes, unpackValues read %d", n, got)
		}
		// The input may spell a length in a longer varint than the encoder
		// would; its values must still survive a pack/unpack round trip.
		checkPackedRun(t, vals, w)
	})
}
