package host

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/obs"
	"scrub/internal/transport"
)

// wireFrame is one TupleBatch as the receiving end of a loopback
// connection saw it: the bytes its frame took on the wire (length prefix
// included) and the cumulative cost it carried.
type wireFrame struct {
	bytes, shipBytes uint64
	tuples           int
}

// TestShipBytesMatchWire: the bytes the governor charges are the bytes the
// wire carried. The agent sizes a batch by arithmetic before a NetSink
// encodes it; the far end measures every frame that arrives.
func TestShipBytesMatchWire(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var mu sync.Mutex
	var frames []wireFrame
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		recv := &obs.Counter{} // payload + header of every frame decoded
		conn.SetMetrics(&transport.ConnMetrics{BytesRecv: recv})
		for {
			before := recv.Value()
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			if b, ok := msg.(transport.TupleBatch); ok {
				mu.Lock()
				frames = append(frames, wireFrame{bytes: recv.Value() - before, shipBytes: b.ShipBytes, tuples: len(b.Tuples)})
				mu.Unlock()
			}
		}
	}()

	reg := obs.NewRegistry()
	sink := NewNetSink(l.Addr(), "h1")
	defer sink.Close()
	a := newAgent(t, sink, func(c *Config) {
		c.BatchSize = 16
		c.Metrics = reg
		// Only the Flush calls below cut batches.
		c.FlushInterval, c.HeartbeatInterval = time.Hour, time.Hour
	})
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id", "city", "bid_price"}}); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	for i := 0; i < 200; i++ {
		// Cities of 0–299 bytes cross the one-byte length prefix; every
		// seventh event leaves city unset, a hole the wire carries as a
		// bare tag.
		b := event.NewBuilder(bidSchema).SetRequestID(uint64(i)).SetTimeNanos(now).
			Int("user_id", int64(i)).Float("bid_price", float64(i))
		if i%7 != 0 {
			b.Str("city", strings.Repeat("c", i*3/2))
		}
		a.Log(b.MustBuild())
	}
	a.Flush() // 12 full chunks and a partial one
	a.mu.Lock()
	a.queries[queryKey{id: 1}].drops.Add(3) // moves a counter: the next cycle owes a heartbeat
	a.mu.Unlock()
	a.Flush()
	a.Close()
	var charged uint64
	for _, sm := range reg.Snapshot() {
		if sm.Name == "scrub_host_ship_bytes_total" {
			charged = uint64(sm.Value)
		}
	}
	if charged == 0 {
		t.Fatal("scrub_host_ship_bytes_total is absent or zero after 14 batches")
	}

	var wire uint64
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		wire = 0
		for _, f := range frames {
			wire += f.bytes
		}
		return len(frames) >= 14 && wire >= charged
	})
	mu.Lock()
	defer mu.Unlock()
	if wire != charged {
		t.Fatalf("the wire carried %d bytes of TupleBatch frames, the agent charged %d", wire, charged)
	}
	var through uint64
	shipped := 0
	for i, f := range frames {
		if f.shipBytes != through {
			t.Fatalf("batch %d carries ShipBytes %d, the frames before it took %d", i, f.shipBytes, through)
		}
		through += f.bytes
		shipped += f.tuples
	}
	if last := frames[len(frames)-1]; shipped != 200 || len(frames) != 14 || last.tuples != 0 {
		t.Fatalf("%d tuples in %d frames, the last with %d; want 200 in 13 and a heartbeat", shipped, len(frames), last.tuples)
	}
	if st := a.Stats(); st.SinkErrors != 0 {
		t.Fatalf("%d sink errors on loopback", st.SinkErrors)
	}
}

// TestRecycledChunkPinsNothing: a chunk back in the pool holds no string
// payload of the events it carried — every cell of its value arena and
// every tuple header is zero, whichever query filled it last.
func TestRecycledChunkPinsNothing(t *testing.T) {
	a := newAgent(t, &collectSink{}, func(c *Config) {
		c.BatchSize = 8
		c.FlushInterval = time.Hour // the test drives the chunk by hand
	})
	for id, cols := range [][]string{{"user_id", "city", "bid_price"}, {"city"}} {
		if err := a.Start(transport.HostQuery{QueryID: uint64(id + 1), EventType: "bid", Columns: cols}); err != nil {
			t.Fatal(err)
		}
	}
	ev := bidEvent(1, 42, "a city name that must not outlive its batch", 1.0, time.Now().UnixNano())
	// The wide query sizes a chunk's arena; the narrow one, next, most
	// likely draws the same chunk from the pool and fills a prefix of it.
	for _, key := range []queryKey{{id: 1}, {id: 2}} {
		a.mu.Lock()
		aq := a.queries[key]
		a.mu.Unlock()
		c := a.getChunk(aq)
		for c.n < len(c.tuples)-1 {
			vals := c.vals[c.n*aq.width : (c.n+1)*aq.width]
			for j, idx := range aq.colIdx {
				vals[j] = ev.At(idx)
			}
			c.tuples[c.n] = transport.Tuple{RequestID: ev.RequestID, TsNanos: ev.TimeNanos, Values: vals}
			c.n++
		}
		a.ship(c)
		for i, v := range c.vals[:cap(c.vals)] {
			if v != (event.Value{}) {
				t.Fatalf("query %d: cell %d of the recycled arena still holds %v", key.id, i, v)
			}
		}
		for i, tp := range c.tuples {
			if tp.RequestID != 0 || tp.TsNanos != 0 || tp.Values != nil {
				t.Fatalf("query %d: tuple %d of the recycled chunk still holds %+v", key.id, i, tp)
			}
		}
		if c.q != nil || c.n != 0 {
			t.Fatalf("query %d: recycled chunk keeps q=%v n=%d", key.id, c.q, c.n)
		}
	}
	if got := len(a.cfg.Sink.(*collectSink).tuples()); got != 14 {
		t.Fatalf("%d tuples reached the sink, want 14", got)
	}
}

// TestLaneShipsInCutOrder: a lane's chunks reach the sink in the order the
// lane cut them. One query logs 200 000 events in time order while the
// shipper flushes every 50 µs into a queue that drops nothing, so full
// chunks and flushed partial ones interleave: every batch's first tuple
// is no older than the previous batch's last, and every tuple ships.
func TestLaneShipsInCutOrder(t *testing.T) {
	const n = 200_000
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) { c.FlushInterval, c.QueueSize = 50*time.Microsecond, 1<<22 })
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id"}}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now().UnixNano()
	for i := range n {
		a.Log(bidEvent(uint64(i), 1, "sf", 1, t0+int64(i)))
	}
	a.Flush()
	shipped, reordered, batches := 0, 0, 0
	last := int64(math.MinInt64)
	for _, b := range sink.all() {
		if len(b.Tuples) == 0 {
			continue // a heartbeat
		}
		if b.Tuples[0].TsNanos < last {
			reordered++
		}
		last = b.Tuples[len(b.Tuples)-1].TsNanos
		shipped += len(b.Tuples)
		batches++
	}
	if reordered != 0 || shipped != n {
		t.Fatalf("%d of %d batches shipped behind a later one; %d of %d tuples shipped (queue drops %d)",
			reordered, batches, shipped, n, a.Stats().QueueDrops)
	}
}

// TestFlushDrainsBeforeEachSeal: a flush drains the queue before it seals
// each query's partial chunk into it, so even the minimum queue of two
// slots takes the partial chunks of five queries and drops none.
func TestFlushDrainsBeforeEachSeal(t *testing.T) {
	const queries, perQuery = 5, 10
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) { c.QueueSize, c.BatchSize, c.FlushInterval = 16, 16, time.Hour })
	if slots := cap(a.chunks); slots >= queries {
		t.Fatalf("the queue has %d slots; the test needs fewer than %d", slots, queries)
	}
	for id := range queries {
		if err := a.Start(transport.HostQuery{QueryID: uint64(id + 1), EventType: "bid", Columns: []string{"user_id"}}); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Now().UnixNano()
	for i := range perQuery {
		a.Log(bidEvent(uint64(i), 1, "sf", 1, now))
	}
	a.Flush()
	if n, drops := len(sink.tuples()), a.Stats().QueueDrops; n != queries*perQuery || drops != 0 {
		t.Fatalf("shipped %d tuples with %d queue drops, want %d and none", n, drops, queries*perQuery)
	}
}
