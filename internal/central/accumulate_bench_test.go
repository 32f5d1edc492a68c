package central

import (
	"math/rand"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// BenchmarkAccumulate applies 512-tuple batches of zipfian users (s = 1.1
// over 100 k, scrubbench's) to one query, forty batches to a window, so a
// window holds the 20 k tuples a central-mixed window does and the figure
// carries its share of opening groups and closing windows: ns/op is per
// tuple. The two plans are the two shapes the aggregate-state layout
// decides: a group-by with two scalar aggregates and an ungrouped top_k.
// The file uses nothing an older checkout lacks, so it measures one as it
// stands.
func BenchmarkAccumulate(b *testing.B) {
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat}))
	for _, bc := range []struct{ name, query string }{
		{"groupby-2agg", `select bid.user_id, count(*), avg(bid.bid_price) from bid group by bid.user_id window 10s`},
		{"top_k", `select top_k(bid.user_id, 10) from bid window 10s`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			q, err := ql.Parse(bc.query)
			if err != nil {
				b.Fatal(err)
			}
			ap, err := ql.Analyze(q, cat)
			if err != nil {
				b.Fatal(err)
			}
			e := NewEngine()
			if err := e.StartQuery(FromPlan(ap, 1, 0, 0, 1, 1), func(transport.ResultWindow) {}); err != nil {
				b.Fatal(err)
			}
			const batchSize, perWindow = 512, 40
			rng := rand.New(rand.NewSource(1))
			zipf := rand.NewZipf(rng, 1.1, 1, 100000)
			pool := make([][]event.Value, 1<<16)
			for i := range pool {
				pool[i] = []event.Value{event.Int(int64(zipf.Uint64())), event.Float(rng.Float64() * 10)}
			}
			tuples := make([]transport.Tuple, batchSize)
			batch := transport.TupleBatch{QueryID: 1, HostID: "h", Tuples: tuples}
			b.ReportAllocs()
			b.ResetTimer()
			for n, at := 0, 0; n < b.N; n += batchSize {
				ts := int64(n/batchSize) * int64(10*time.Second/perWindow)
				for j := range tuples {
					tuples[j] = transport.Tuple{RequestID: uint64(n + j), TsNanos: ts + int64(j), Values: pool[at&(len(pool)-1)]}
					at++
				}
				e.HandleBatch(batch)
			}
		})
	}
}
