package central

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scrub/internal/transport"
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
