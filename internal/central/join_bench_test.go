package central

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/transport"
)

// BenchmarkJoinBuffer buffers 512-tuple batches of exclusions, whose one
// projected column is a string, into scrubbench's join (`select
// exclusion.reason, count(*) from bid, exclusion group by
// exclusion.reason`), 32 batches to a window: 16 384 pending tuples, as a
// central-mixed window holds. ns/op is per tuple. "repeated" draws the
// reason from six, as scrubbench does; "distinct" never repeats one. B/run
// is what one buffered tuple takes of its window's arena, read off one
// full window before the timer starts. The loop must not allocate per
// tuple: what it allocates is the arena's chunks, the index's heads and a
// closing window's result, well under one per hundred tuples. The file
// uses nothing an older checkout lacks, so it measures one as it stands.
func BenchmarkJoinBuffer(b *testing.B) {
	const batchSize, perWindow = 512, 32
	six := []string{"budget", "frequency_cap", "geo", "blocklist", "pacing", "creative"}
	for _, bc := range []struct {
		name   string
		reason func(i int) string
	}{
		{"repeated", func(i int) string { return six[(i*7+i/5)%len(six)] }},
		{"distinct", func(i int) string { return fmt.Sprintf("reason-%06d", i) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pool := make([][]event.Value, batchSize*perWindow)
			for i := range pool {
				pool[i] = []event.Value{event.Str(bc.reason(i))}
			}
			tuples := make([]transport.Tuple, batchSize)
			batch := transport.TupleBatch{QueryID: 1, HostID: "h", TypeIdx: 1, Tuples: tuples}
			fill := func(e *Engine, n int) {
				ts := int64(n/batchSize) * int64(10*time.Second/perWindow)
				for j := range tuples {
					tuples[j] = transport.Tuple{RequestID: uint64(n + j), TsNanos: ts + int64(j), Values: pool[(n+j)%len(pool)]}
				}
				e.HandleBatch(batch)
			}
			start := func(lateness time.Duration) *Engine {
				e := NewEngine()
				p := buildPlan(b, `select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 10s`, 1, 1, 1)
				p.Lateness = lateness
				if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
					b.Fatal(err)
				}
				return e
			}

			one := start(time.Hour)
			for n := 0; n < batchSize*perWindow; n += batchSize {
				fill(one, n)
			}
			one.mu.Lock()
			ws := one.queries[1].win.GetAll(0)[0]
			var written int
			for _, c := range ws.arena.Chunks() {
				written += len(c)
			}
			perRun := float64(written) / float64(ws.pendN)
			one.mu.Unlock()

			e := start(2 * time.Second)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batchSize {
				fill(e, n)
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(perRun, "B/run")
			if perTuple := float64(m1.Mallocs-m0.Mallocs) / float64(b.N); b.N >= batchSize*perWindow && !raceEnabled && perTuple >= 0.01 {
				b.Errorf("%.4f allocations per buffered tuple, want arena and index growth only", perTuple)
			}
		})
	}
}

// BenchmarkJoinApply feeds scrubbench's join (`select exclusion.reason,
// count(*) from bid, exclusion group by exclusion.reason window 250ms`)
// the way scrubbench's central workloads do: per round of 50 ms and per
// host of eight, a batch of 512 bids with fresh request ids, then a batch
// of 512 exclusions, each attached to a random bid of that batch — so
// every exclusion probes and finds its bid, and bids get zero, one or
// several. It reports the two sides' costs apart, ns/bid and
// ns/exclusion (the time inside each side's HandleBatch calls over its
// tuples; ns/op is per request, the two together), max-ns/batch, the
// slowest HandleBatch call of a window — the stall an index that grows all
// at once puts on the apply path — as the median over the windows fed, so
// that a collection or a preemption that lands in one window does not set
// it, and B/request, what one bid and its share of exclusions take of a
// full window's arena. The loop
// must not allocate per tuple: what it allocates is the arena's chunks,
// the index's heads and a closing window's result, well under one per
// hundred tuples. Like BenchmarkJoinBuffer it uses nothing an older
// checkout lacks.
func BenchmarkJoinApply(b *testing.B) {
	const batchSize, hosts = 512, 8
	const round = int64(50 * time.Millisecond)
	six := []string{"budget", "frequency_cap", "geo", "blocklist", "pacing", "creative"}
	reasons := make([][]event.Value, len(six))
	for i, s := range six {
		reasons[i] = []event.Value{event.Str(s)}
	}
	hostIDs := make([]string, hosts)
	for h := range hostIDs {
		hostIDs[h] = fmt.Sprintf("bench-host-%d", h)
	}
	bids := make([]transport.Tuple, batchSize)
	excl := make([]transport.Tuple, batchSize)
	rng := rand.New(rand.NewSource(1))
	// feed applies the n'th pair of batches, bids then exclusions, and
	// returns the time each took.
	feed := func(e *Engine, n int) (bidNs, exclNs int64) {
		host := n % hosts
		ts := int64(n/hosts) * round
		for j := range bids {
			bids[j] = transport.Tuple{RequestID: uint64(n*batchSize + j), TsNanos: ts + int64(j)}
		}
		for j := range excl {
			bid := bids[rng.Intn(batchSize)]
			excl[j] = transport.Tuple{RequestID: bid.RequestID, TsNanos: bid.TsNanos, Values: reasons[rng.Intn(len(reasons))]}
		}
		t0 := time.Now()
		e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: hostIDs[host], TypeIdx: 0, Tuples: bids})
		t1 := time.Now()
		e.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: hostIDs[host], TypeIdx: 1, Tuples: excl})
		return t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds()
	}
	start := func(lateness time.Duration) *Engine {
		e := NewEngine()
		p := buildPlan(b, `select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 250ms`, 1, 1, 1)
		p.Lateness = lateness
		if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
			b.Fatal(err)
		}
		return e
	}

	// One full window, 5 rounds of every host, kept open to be measured.
	one := start(time.Hour)
	const perWindow = 5 * hosts
	for n := 0; n < perWindow; n++ {
		feed(one, n)
	}
	one.mu.Lock()
	ws := one.queries[1].win.GetAll(0)[0]
	var written int
	for _, c := range ws.arena.Chunks() {
		written += len(c)
	}
	perRequest := float64(written) / float64(perWindow*batchSize)
	one.mu.Unlock()

	e := start(250 * time.Millisecond)
	var bidNs, exclNs, maxNs int64
	worst := make([]int64, 0, b.N/(perWindow*batchSize)+1) // each window's slowest batch
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n*batchSize < b.N; n++ {
		bn, en := feed(e, n)
		bidNs += bn
		exclNs += en
		maxNs = max(maxNs, bn, en)
		if (n+1)%perWindow == 0 {
			worst, maxNs = append(worst, maxNs), 0
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	pairs := (b.N + batchSize - 1) / batchSize
	b.ReportMetric(float64(bidNs)/float64(pairs*batchSize), "ns/bid")
	b.ReportMetric(float64(exclNs)/float64(pairs*batchSize), "ns/exclusion")
	if len(worst) > 0 {
		slices.Sort(worst)
		b.ReportMetric(float64(worst[len(worst)/2]), "max-ns/batch")
	}
	b.ReportMetric(perRequest, "B/request")
	if perTuple := float64(m1.Mallocs-m0.Mallocs) / float64(2*pairs*batchSize); b.N >= batchSize*perWindow && !raceEnabled && perTuple >= 0.01 {
		b.Errorf("%.4f allocations per tuple, want arena and index growth only", perTuple)
	}
}
