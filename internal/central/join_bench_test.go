package central

import (
	"fmt"
	"runtime"
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
