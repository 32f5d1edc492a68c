package central

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/transport"
	"scrub/internal/window"
)

func TestNewShardedEngineValidation(t *testing.T) {
	if _, err := NewShardedEngine(0); err == nil {
		t.Error("0 shards should fail")
	}
	se, err := NewShardedEngine(4)
	if err != nil || len(se.shards) != 4 {
		t.Fatalf("NewShardedEngine: %v", err)
	}
	p := buildPlan(t, `select count(*) from bid`, 1, 1, 1)
	if err := se.StartQuery(p, nil); err == nil {
		t.Error("nil emit should fail")
	}
	if err := se.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	if err := se.StartQuery(p, func(transport.ResultWindow) {}); err == nil {
		t.Error("duplicate id should fail")
	}
	if _, ok := se.Stats(1); !ok {
		t.Error("query 1 not running")
	}
}

func TestShardedScaleUpAndBounds(t *testing.T) {
	se, err := NewShardedEngine(3)
	if err != nil {
		t.Fatal(err)
	}
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s sample hosts 50% events 50%`, 1, 4, 2)
	if err := se.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		tuples := make([]transport.Tuple, 10)
		for i := range tuples {
			tuples[i] = transport.Tuple{RequestID: uint64(h*100 + i), TsNanos: sec(1)}
		}
		se.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: fmt.Sprintf("h%d", h), TypeIdx: 0, Tuples: tuples})
	}
	se.Tick(sec(100))
	wins := c.all()
	if len(wins) != 1 {
		t.Fatalf("wins = %d", len(wins))
	}
	// 20 tuples × factor 4 = 80.
	if wins[0].Rows[0][0].String() != "80" {
		t.Errorf("scaled count = %v", wins[0].Rows[0][0])
	}
	if !wins[0].Approx || len(wins[0].ErrBounds) != 1 {
		t.Errorf("approx metadata missing: %+v", wins[0])
	}
	se.StopQuery(1)
}

func TestShardedHostDropCounters(t *testing.T) {
	se, _ := NewShardedEngine(2)
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	if err := se.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	se.HandleBatch(transport.TupleBatch{
		QueryID: 1, HostID: "h1", TypeIdx: 0,
		Tuples:     []transport.Tuple{{RequestID: 1, TsNanos: sec(1)}},
		QueueDrops: 9,
	})
	se.Tick(sec(100))
	wins := c.all()
	if len(wins) != 1 || wins[0].Stats.HostDrops != 9 {
		t.Fatalf("host drops = %+v", wins)
	}
	stats, ok := se.StopQuery(1)
	if !ok || stats.HostDrops != 9 || stats.TuplesIn != 1 {
		t.Errorf("final stats = %+v", stats)
	}
	if _, ok := se.StopQuery(1); ok {
		t.Error("double stop should miss")
	}
	// Batches after stop are ignored.
	se.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h1"})
}

func TestShardedConcurrentStress(t *testing.T) {
	se, _ := NewShardedEngine(4)
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 1s`, 1, 1, 1)
	// The goroutines below replay a small set of event times out of order
	// indefinitely; generous lateness keeps the stress test about
	// concurrency, not late-drop accounting.
	p.Lateness = time.Hour
	if err := se.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	const hosts = 6
	const batches = 40
	const perBatch = 25
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				tuples := make([]transport.Tuple, perBatch)
				for i := range tuples {
					tuples[i] = transport.Tuple{
						RequestID: uint64(h*1_000_000 + b*1000 + i),
						TsNanos:   sec(int64(b%8)) + 1,
					}
				}
				se.HandleBatch(transport.TupleBatch{
					QueryID: 1, HostID: fmt.Sprintf("h%d", h), TypeIdx: 0, Tuples: tuples,
				})
			}
		}(h)
	}
	stop := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		for {
			select {
			case <-stop:
				return
			default:
				se.Tick(0) // far past: closes nothing
				se.Stats(1)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-tickDone
	stats, ok := se.StopQuery(1)
	if !ok {
		t.Fatal("query vanished")
	}
	const want = hosts * batches * perBatch
	if stats.TuplesIn != want {
		t.Errorf("tuples = %d, want %d", stats.TuplesIn, want)
	}
	var emitted int64
	for _, w := range c.all() {
		for _, row := range w.Rows {
			n, _ := row[0].AsInt()
			emitted += n
		}
	}
	if emitted != want {
		t.Errorf("emitted sum = %d, want %d", emitted, want)
	}
}

func TestShardedThroughWholeCluster(t *testing.T) {
	// Integration smoke via the central plan only (core wiring is tested
	// in internal/core): sliding windows through shards.
	se, _ := NewShardedEngine(2)
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 10s slide 5s`, 1, 1, 1)
	if err := se.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	se.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h", TypeIdx: 0,
		Tuples: []transport.Tuple{
			{RequestID: 1, TsNanos: sec(7)},
			{RequestID: 2, TsNanos: sec(12)},
		}})
	se.Tick(sec(100))
	counts := map[int64]string{}
	for _, w := range c.all() {
		counts[w.WindowStart/int64(time.Second)] = w.Rows[0][0].String()
	}
	if counts[0] != "1" || counts[5] != "2" || counts[10] != "1" {
		t.Errorf("sliding sharded counts = %v", counts)
	}
	se.StopQuery(1)
}

// codecShard is a direct shard whose closed windows cross the partial
// codec, as a shard process's do.
type codecShard struct{ directShard }

func (d codecShard) Collect(qr *QueryRuntime, bound int64) ([]window.Closed[PartialWindow], error) {
	partials, _, _, _ := d.eng.CollectDriven(qr.plan.QueryID, bound)
	return decodeAll(qr, partials)
}

func (d codecShard) Stop(qr *QueryRuntime) ([]window.Closed[PartialWindow], error) {
	partials, _ := d.eng.DrainDriven(qr.plan.QueryID)
	return decodeAll(qr, partials)
}

func decodeAll(qr *QueryRuntime, partials []EncodedPartial) ([]window.Closed[PartialWindow], error) {
	var out []window.Closed[PartialWindow]
	for _, ep := range partials {
		pw, err := qr.DecodePartial(ep.Data)
		if err != nil {
			return nil, err
		}
		out = append(out, window.Closed[PartialWindow]{Start: ep.Start, End: ep.End, State: *pw})
	}
	return out, nil
}

// TestGovernedWindowsIdenticalAcrossShards: batches sampled at rates the
// governor set render the same windows on one shard as on four whose
// partials cross the codec, and the groups of a grouped count sum to the
// ungrouped count.
func TestGovernedWindowsIdenticalAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	rates := []float64{1, 0.5, 0.25}
	var batches []transport.TupleBatch
	for round := range 6 {
		for h := range 4 {
			b := transport.TupleBatch{QueryID: 1, HostID: fmt.Sprintf("h%d", h), EffRate: rates[(round+h)%len(rates)]}
			for range 8 {
				b.Tuples = append(b.Tuples, transport.Tuple{
					RequestID: uint64(rng.Intn(1000)), TsNanos: sec(int64(rng.Intn(20))),
					Values: []event.Value{event.Int(int64(rng.Intn(50))), event.Int(int64(rng.Intn(4))), event.Float(float64(rng.Intn(1000)) / 8)},
				})
			}
			batches = append(batches, b)
		}
	}
	run := func(t *testing.T, ex Executor, src string) []transport.ResultWindow {
		t.Helper()
		c := &collector{}
		p := buildPlan(t, src, 1, 4, 4)
		p.Lateness = time.Hour // the batches run back and forth over both windows
		if err := ex.StartQuery(p, c.emit); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			ex.HandleBatch(transport.CloneBatch(b))
		}
		ex.Tick(sec(20) + int64(p.Lateness))
		wins := c.all()
		if len(wins) != 2 {
			t.Fatalf("%s: %d windows, want 2", src, len(wins))
		}
		return wins
	}
	// Rows, flags, stats and streams must match exactly. The bounds come
	// from per-host moments a shard split merges in another float order,
	// so they are held to 1e-9 of each other.
	same := func(a, b []transport.ResultWindow) bool {
		for i := range a {
			for j, x := range a[i].ErrBounds {
				if y := b[i].ErrBounds[j]; math.IsNaN(x) != math.IsNaN(y) || math.Abs(x-y) > 1e-9*math.Abs(x) {
					return false
				}
			}
		}
		blank := func(ws []transport.ResultWindow) string {
			ws = slices.Clone(ws)
			for i := range ws {
				ws[i].ErrBounds = nil
			}
			return fmt.Sprintf("%v", ws)
		}
		return blank(a) == blank(b)
	}
	var counts [2][]int64 // per window: the ungrouped count(*), Σ of the grouped
	for qi, q := range []struct {
		src   string
		count int // count(*)'s column
	}{
		{`select count(*), sum(bid_price), avg(bid_price), max(user_id) from bid window 10s`, 0},
		{`select exchange_id, count(*), sum(bid_price), avg(bid_price) from bid group by exchange_id window 10s`, 1},
	} {
		one := run(t, NewEngine(), q.src)
		se, err := NewShardedEngine(4)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range se.shards {
			se.shards[i] = codecShard{s.(directShard)}
		}
		four := run(t, se, q.src)
		if !same(one, four) {
			t.Errorf("%s:\none shard:   %v\nfour shards: %v", q.src, one, four)
		}
		for _, w := range one {
			if !w.Approx {
				t.Errorf("%s: window %d not approximate", q.src, w.WindowStart)
			}
			var n int64
			for _, row := range w.Rows {
				v, _ := row[q.count].AsInt()
				n += v
			}
			counts[qi] = append(counts[qi], n)
		}
	}
	if !slices.Equal(counts[0], counts[1]) {
		t.Errorf("Σ grouped count(*) %v, ungrouped %v: want equal", counts[1], counts[0])
	}
}
