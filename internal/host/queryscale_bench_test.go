package host

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/transport"
)

// BenchmarkLogQueryScale times Log with 1 to 256 queries installed on the
// one event type, the number scrubbench's host workloads hold fixed at 64.
// The paper's hosts run "hundreds of queries"; this is what the shared
// query index (DESIGN.md §14) is for. Every query is
// `select bid.user_id ... where bid.bid_price > c group by bid.user_id`:
//
//	overlap:  c cycles through 16 thresholds in [6, 9), so duplicated
//	          predicates share one node of the index
//	distinct: c also differs per query in the sixth decimal, so no two
//	          predicates share a node (the adversarial bound)
//
// Prices follow the simulator's shape (log-uniform in [0.5, 8], ±15%
// model adjustment), so most events match no query. Two more shapes are
// scrubbench's host workloads in small:
//
//	shape=firehose: one unfiltered query projecting four columns, so
//	                every event ships (host-firehose)
//	shape=fanout:   64 spanned queries, the overlap mix's predicates,
//	                over 8 column sets (host-fanout)
//
// and two run firehose's query below rate 1, where each matched event
// is keyed, hashed and tested:
//
//	shape=sampled:      `sample events 10%`, as cluster-wire's select
//	shape=sampled-half: `sample events 50%`
//
// Matched tuples are shipped to a sink that encodes each batch and
// discards it: the wire cost stays on the host, central's does not.
func BenchmarkLogQueryScale(b *testing.B) {
	const overlapPreds = 16
	mixes := []struct {
		name      string
		threshold func(i int) float64
	}{
		{"overlap", func(i int) float64 { return 6 + 3*float64(i%overlapPreds)/overlapPreds }},
		{"distinct", func(i int) float64 { return 6 + 3*float64(i%overlapPreds)/overlapPreds + float64(i)*1e-6 }},
	}
	rng := rand.New(rand.NewSource(9303))
	now := time.Now().UnixNano()
	evs := make([]*event.Event, 1024)
	for i := range evs {
		price := 0.5 * math.Pow(16, rng.Float64()) * (0.85 + 0.3*rng.Float64())
		evs[i] = bidEvent(uint64(i+1), rng.Int63n(1000), "sf", price, now)
	}
	var mu sync.Mutex
	var buf []byte
	encodeAndDiscard := SinkFunc(func(tb transport.TupleBatch) (err error) {
		mu.Lock()
		defer mu.Unlock()
		buf, err = transport.AppendEncode(buf[:0], tb)
		return err
	})
	run := func(name string, qs []transport.HostQuery) {
		b.Run(name, func(b *testing.B) {
			a, err := New(Config{HostID: "h", Service: "s", Catalog: testCatalog(),
				Sink: encodeAndDiscard, FlushInterval: 20 * time.Millisecond, QueueSize: 1 << 16})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			for _, q := range qs {
				if err := a.Start(q); err != nil {
					b.Fatal(err)
				}
			}
			mask := len(evs) - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Log(evs[i&mask])
			}
			b.StopTimer()
			a.Close()
			st := a.Stats()
			b.ReportMetric(float64(st.Shipped+st.QueueDrops)/float64(b.N), "tuples/op")
			b.ReportMetric(float64(st.QueueDrops)/float64(b.N), "drops/op")
		})
	}
	priceOver := func(c float64) expr.Node {
		return expr.Binary{Op: expr.OpGt, L: expr.FieldRef{Type: "bid", Name: "bid_price"}, R: expr.Lit{Val: event.Float(c)}}
	}
	for _, mix := range mixes {
		for _, n := range []int{1, 8, 32, 64, 256} {
			qs := make([]transport.HostQuery, n)
			for i := range qs {
				qs[i] = transport.HostQuery{QueryID: uint64(i + 1), EventType: "bid",
					Pred: priceOver(mix.threshold(i)), Columns: []string{"user_id"}}
			}
			run(fmt.Sprintf("mix=%s/queries=%d", mix.name, n), qs)
		}
	}
	firehose := transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id", "city", "bid_price", "user_id"}}
	run("shape=firehose", []transport.HostQuery{firehose})
	for _, s := range []struct {
		name string
		rate float64
	}{{"sampled", 0.1}, {"sampled-half", 0.5}} {
		q := firehose
		q.SampleEvents = s.rate
		run("shape="+s.name, []transport.HostQuery{q})
	}
	fanoutCols := [][]string{{"user_id"}, {"city"}, {"bid_price"}, {"user_id", "city"},
		{"city", "bid_price"}, {"user_id", "bid_price"}, {"user_id", "city", "bid_price"}, {"bid_price", "city", "user_id"}}
	fanout := make([]transport.HostQuery, 64)
	for i := range fanout {
		fanout[i] = transport.HostQuery{QueryID: uint64(i + 1), EventType: "bid",
			Pred: priceOver(mixes[0].threshold(i)), Columns: fanoutCols[i%len(fanoutCols)],
			StartNanos: now - int64(time.Hour), EndNanos: now + int64(time.Hour)}
	}
	run("shape=fanout", fanout)
}

// BenchmarkAgentStart times Start installing the k-th query on the one
// event type while k−1 are live: per op, the k-th is stopped (untimed)
// and installed again. ms/all is the wall time the setup took to install
// all k into an empty agent, what a host pays as a fleet of
// troubleshooters' queries arrives. ms/stop is the mean time of the
// untimed Stop, the compacting rebuild that re-interns the k−1 queries
// left into a fresh program: an intern that scanned the nodes would make
// it grow with k². Every query is three conjuncts,
// `bid_price > c and user_id % 64 = r and city = s`:
//
//	overlap:  (c, r, s) cycle together through 16 combinations, so the
//	          k queries hold 16 distinct predicates
//	distinct: c also differs per query in the sixth decimal, r cycles
//	          through 64 residues and s through 32 cities, so every
//	          predicate is its own and only the conjuncts overlap
func BenchmarkAgentStart(b *testing.B) {
	const overlapPreds = 16
	mixes := []struct {
		name  string
		query func(i int) expr.Node
	}{
		{"overlap", func(i int) expr.Node {
			j := i % overlapPreds
			return startPred(6+3*float64(j)/overlapPreds, j, fmt.Sprintf("c%d", j))
		}},
		{"distinct", func(i int) expr.Node {
			return startPred(6+3*float64(i%overlapPreds)/overlapPreds+float64(i)*1e-6, i%64, fmt.Sprintf("c%d", i%32))
		}},
	}
	for _, mix := range mixes {
		for _, k := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("mix=%s/queries=%d", mix.name, k), func(b *testing.B) {
				a, err := New(Config{HostID: "h", Service: "s", Catalog: testCatalog(),
					Sink: SinkFunc(func(transport.TupleBatch) error { return nil }), FlushInterval: time.Hour})
				if err != nil {
					b.Fatal(err)
				}
				defer a.Close()
				qs := make([]transport.HostQuery, k)
				for i := range qs {
					qs[i] = transport.HostQuery{QueryID: uint64(i + 1), EventType: "bid", Pred: mix.query(i), Columns: []string{"user_id"}}
				}
				t0 := time.Now()
				for _, q := range qs {
					if err := a.Start(q); err != nil {
						b.Fatal(err)
					}
				}
				all := time.Since(t0)
				last := qs[k-1]
				b.ReportAllocs()
				b.ResetTimer()
				var stop time.Duration
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					t0 := time.Now()
					a.Stop(last.QueryID)
					stop += time.Since(t0)
					b.StartTimer()
					if err := a.Start(last); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(all)/1e6, "ms/all")
				b.ReportMetric(float64(stop)/1e6/float64(b.N), "ms/stop")
			})
		}
	}
}

// startPred is `bid.bid_price > c and bid.user_id % 64 = r and bid.city = s`.
func startPred(c float64, r int, s string) expr.Node {
	f := func(name string) expr.Node { return expr.FieldRef{Type: "bid", Name: name} }
	and := func(x, y expr.Node) expr.Node { return expr.Binary{Op: expr.OpAnd, L: x, R: y} }
	return and(and(
		expr.Binary{Op: expr.OpGt, L: f("bid_price"), R: expr.Lit{Val: event.Float(c)}},
		expr.Binary{Op: expr.OpEq, L: expr.Binary{Op: expr.OpMod, L: f("user_id"), R: expr.Lit{Val: event.Int(64)}}, R: expr.Lit{Val: event.Int(int64(r))}}),
		expr.Binary{Op: expr.OpEq, L: f("city"), R: expr.Lit{Val: event.Str(s)}})
}
