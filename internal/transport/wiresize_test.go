package transport

import (
	"math/rand"
	"strings"
	"testing"

	"scrub/internal/event"
)

// wireSizeBatches are the shapes the size arithmetic can get wrong, each
// where a length prefix changes width or a cell's size does not follow
// from its column's kind.
func wireSizeBatches() map[string]TupleBatch {
	wide := make([]Tuple, 300) // ≥ 128 tuples: a two-byte count
	for i := range wide {
		wide[i] = Tuple{RequestID: uint64(i), TsNanos: int64(i), Values: []event.Value{event.Int(int64(i))}}
	}
	many := make([]event.Value, 130) // ≥ 128 values in one tuple
	for i := range many {
		many[i] = event.Bool(i%2 == 0)
	}
	return map[string]TupleBatch{
		"heartbeat":        {QueryID: 8, HostID: "h", MatchedTotal: 9, SampledTotal: 9, EffRate: 1},
		"empty host id":    {QueryID: 1},
		"long host id":     {QueryID: 1, HostID: strings.Repeat("h", 200)},
		"zero-width":       {QueryID: 2, HostID: "h", Tuples: []Tuple{{RequestID: 1, TsNanos: 2}, {RequestID: 3, TsNanos: 4}}},
		"holes":            {QueryID: 3, HostID: "h", Tuples: []Tuple{{Values: []event.Value{event.Invalid, event.Int(1), event.Invalid}}}},
		"bools and floats": {QueryID: 4, HostID: "h", Tuples: []Tuple{{Values: []event.Value{event.Bool(true), event.Bool(false), event.Float(-2.5), event.TimeNanos(77)}}}},
		"lists": {QueryID: 5, HostID: "h", Tuples: []Tuple{{Values: []event.Value{
			event.IntList(), event.IntList(1, 2, 3), event.StrList("a", "", strings.Repeat("s", 128)), event.FloatList(make([]float64, 128)...),
		}}}},
		"strings around 128 B": {QueryID: 6, HostID: "h", Tuples: []Tuple{{Values: []event.Value{
			event.Str(""), event.Str(strings.Repeat("a", 127)), event.Str(strings.Repeat("b", 128)), event.Str(strings.Repeat("c", 20000)),
		}}}},
		"300 tuples":   {QueryID: 7, HostID: "bid-sj-1", TypeIdx: 3, Tuples: wide},
		"130 values":   {QueryID: 7, HostID: "h", Tuples: []Tuple{{Values: many}}},
		"replay epoch": {QueryID: 9, HostID: "h", Tuples: wide[:2], ReplayEpoch: 1},
		"replay done":  {QueryID: 9, HostID: "h", ReplayEpoch: 1, ReplayDone: true, BudgetShed: true, CPUNs: 1 << 40, ShipBytes: 1 << 33},
	}
}

func checkWireSize(t *testing.T, b TupleBatch) {
	t.Helper()
	enc, err := AppendEncode(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := TupleBatchWireSize(&b); got != len(enc) {
		t.Fatalf("TupleBatchWireSize = %d, AppendEncode wrote %d bytes (%d tuples)", got, len(enc), len(b.Tuples))
	}
}

// TestTupleBatchWireSize holds the size arithmetic to the encoder: on the
// shapes above and on seeded random batches of mixed cells.
func TestTupleBatchWireSize(t *testing.T) {
	for name, b := range wireSizeBatches() {
		t.Run(name, func(t *testing.T) { checkWireSize(t, b) })
	}
	rng := rand.New(rand.NewSource(27))
	cell := func() event.Value {
		switch rng.Intn(7) {
		case 0:
			return event.Invalid
		case 1:
			return event.Bool(rng.Intn(2) == 0)
		case 2:
			return event.Int(rng.Int63() - rng.Int63())
		case 3:
			return event.Float(rng.NormFloat64())
		case 4:
			return event.Str(strings.Repeat("x", rng.Intn(300)))
		case 5:
			return event.TimeNanos(rng.Int63())
		default:
			xs := make([]int64, rng.Intn(200))
			return event.IntList(xs...)
		}
	}
	for i := 0; i < 200; i++ {
		b := TupleBatch{
			QueryID: rng.Uint64(), HostID: strings.Repeat("h", rng.Intn(140)), TypeIdx: uint8(rng.Intn(4)),
			MatchedTotal: rng.Uint64(), EffRate: rng.Float64(), ReplayEpoch: uint32(rng.Intn(2)), ReplayDone: rng.Intn(2) == 0,
		}
		if n := rng.Intn(4) * rng.Intn(100); n > 0 {
			b.Tuples = make([]Tuple, n)
			width := rng.Intn(6)
			for j := range b.Tuples {
				b.Tuples[j] = Tuple{RequestID: rng.Uint64(), TsNanos: rng.Int63()}
				for k := 0; k < width; k++ {
					b.Tuples[j].Values = append(b.Tuples[j].Values, cell())
				}
			}
		}
		checkWireSize(t, b)
	}
}

// FuzzTupleBatchWireSize: whatever TupleBatch the decoder accepts, the
// size function and the encoder agree on. Seeded with FuzzDecode's corpus
// and the shapes above.
func FuzzTupleBatchWireSize(f *testing.F) {
	for _, m := range sampleMessages() {
		buf, err := AppendEncode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	for _, b := range wireSizeBatches() {
		buf, err := AppendEncode(nil, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if b, ok := m.(TupleBatch); ok {
			checkWireSize(t, b)
		}
	})
}
