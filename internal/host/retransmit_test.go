package host

import (
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/transport"
)

// TestAgentOutageRedelivers: an agent on a NetSink logs while central's
// data port is closed, central comes back on the same address, and the
// agent logs on. What central received is exactly what the agent counts
// as shipped, and matched = shipped + queue drops + sink-error tuples,
// with the chunks kept across the outage redelivered, and with the
// oldest of them evicted into the queue drops when the outage outlasts
// the shipping queue's slots.
func TestAgentOutageRedelivers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		queueSize int    // Config.QueueSize; 0 keeps the default 8192
		outage    int    // events logged while central is down
		wantDrops uint64 // the evicted chunk's tuples
	}{
		{name: "kept", outage: 8},
		{name: "evicted", queueSize: 8, outage: 12, wantDrops: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Reserve an address, then shut the listener so dials fail.
			l, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := l.Addr()
			l.Close()
			sink := NewNetSinkWith(addr, "h1", NetSinkOptions{DialTimeout: 200 * time.Millisecond})
			defer sink.Close()
			a := newAgent(t, sink, func(c *Config) {
				c.BatchSize = 4
				c.QueueSize = tc.queueSize
				// Only the Flush calls below cut batches and heartbeats.
				c.FlushInterval, c.HeartbeatInterval = time.Hour, time.Hour
			})
			if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id"}}); err != nil {
				t.Fatal(err)
			}
			req := uint64(0)
			logChunks := func(events int) {
				for i := 0; i < events; i++ {
					req++
					a.Log(bidEvent(req, int64(req), "x", 1, time.Now().UnixNano()))
					if req%4 == 0 {
						a.Flush() // the shipper takes each chunk before the next fills
					}
				}
			}
			logChunks(tc.outage)

			l2, err := transport.Listen(addr)
			if err != nil {
				t.Skipf("could not re-listen on %s: %v", addr, err)
			}
			fc := serveFakeCentral(t, l2)
			logChunks(4)
			st := a.Stats()
			sink.Close() // central reads to EOF: every frame sent has arrived
			waitFor(t, func() bool {
				fc.mu.Lock()
				defer fc.mu.Unlock()
				return len(fc.hellos) == 1 && fc.ends == 1
			})

			fc.mu.Lock()
			received := 0
			for _, b := range fc.batches {
				received += len(b.Tuples)
			}
			fc.mu.Unlock()
			if st.Shipped != uint64(received) {
				t.Errorf("central received %d tuples, the agent counts %d shipped", received, st.Shipped)
			}
			if sum := st.Shipped + st.QueueDrops + st.SinkErrorTuples; st.Matched != sum {
				t.Errorf("matched %d ≠ shipped %d + queue drops %d + sink-error tuples %d",
					st.Matched, st.Shipped, st.QueueDrops, st.SinkErrorTuples)
			}
			if st.QueueDrops != tc.wantDrops || st.Matched != uint64(tc.outage+4) {
				t.Errorf("matched %d, queue drops %d; want %d, %d", st.Matched, st.QueueDrops, tc.outage+4, tc.wantDrops)
			}
			if st.Kept != 0 {
				t.Errorf("%d tuples still kept after recovery", st.Kept)
			}
		})
	}
}

// TestKeptChunksRedeliverInOrder covers the disconnect arc at the agent:
// chunks shipped during an outage are kept (bounded by the queue's slots,
// oldest evicted into its query's queue drops), the evicted chunks go
// back to the pool and are refilled while the others wait, and recovery
// delivers the survivors in shipping order, across queries, before new
// data.
func TestKeptChunksRedeliverInOrder(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) {
		c.BatchSize = 1 // every matched event fills a chunk
		c.QueueSize = 3 // three slots, so three kept chunks
		c.FlushInterval, c.HeartbeatInterval = time.Hour, time.Hour
	})
	for v := int64(1); v <= 6; v++ {
		if err := a.Start(transport.HostQuery{QueryID: uint64(v), EventType: "bid", Columns: []string{"user_id"},
			Pred: expr.Binary{Op: expr.OpEq, L: expr.FieldRef{Type: "bid", Name: "user_id"}, R: expr.Lit{Val: event.Int(v)}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Query v matches only user v.
	logUser := func(v int64) {
		a.Log(bidEvent(uint64(v), v, "x", 1, v))
		a.Flush()
	}
	sink.down.Store(true)
	for v := int64(1); v <= 5; v++ {
		logUser(v)
	}
	st := a.Stats()
	if st.QueueDrops != 2 || st.Kept != 3 || st.Shipped != 0 {
		t.Fatalf("after five undelivered chunks: queue drops %d, kept %d, shipped %d; want 2, 3, 0", st.QueueDrops, st.Kept, st.Shipped)
	}
	if n := a.keptDrops.Value(); n != 2 {
		t.Fatalf("scrub_host_spill_drops_total = %d, want 2", n)
	}

	sink.down.Store(false)
	logUser(6)
	var order []int64
	drops := map[uint64]uint64{}
	for _, b := range sink.all() {
		drops[b.QueryID] = b.QueueDrops
		if len(b.Tuples) == 0 {
			continue
		}
		tp := b.Tuples[0]
		if len(b.Tuples) != 1 || int64(b.QueryID) != tp.TsNanos || tp.Values[0] != event.Int(tp.TsNanos) {
			t.Fatalf("query %d's batch holds %+v: a kept chunk was overwritten", b.QueryID, b.Tuples)
		}
		order = append(order, tp.TsNanos)
	}
	if len(order) != 4 || order[0] != 3 || order[1] != 4 || order[2] != 5 || order[3] != 6 {
		t.Fatalf("delivered users %v, want [3 4 5 6]", order)
	}
	// The evicted queries' heartbeats tell central about their drops.
	if drops[1] != 1 || drops[2] != 1 || drops[3] != 0 {
		t.Fatalf("cumulative drops central heard per query: %v, want 1 for queries 1 and 2", drops)
	}
	if st := a.Stats(); st.Shipped != 4 || st.Kept != 0 {
		t.Fatalf("after recovery: shipped %d, kept %d; want 4, 0", st.Shipped, st.Kept)
	}
}

// TestEvictionFeedsCounters checks the kept buffer's drop path: an
// eviction lands in the query's cumulative QueueDrops, which the next
// delivered batch carries to central, and whatever is still kept when the
// agent closes is charged as dropped too, for a stopped query at the
// agent level only.
func TestEvictionFeedsCounters(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) {
		c.BatchSize = 2
		c.QueueSize = 4 // two kept chunks
		c.FlushInterval, c.HeartbeatInterval = time.Hour, time.Hour
	})
	if err := a.Start(transport.HostQuery{QueryID: 4, EventType: "bid"}); err != nil {
		t.Fatal(err)
	}
	logFlush := func(n int) {
		for i := 0; i < n; i++ {
			a.Log(bidEvent(uint64(i), 1, "x", 1, time.Now().UnixNano()))
			if i%2 == 1 {
				a.Flush()
			}
		}
	}
	sink.down.Store(true)
	logFlush(6) // three chunks; the first is evicted
	sink.down.Store(false)
	a.Flush()
	matched, _, drops := sink.lastCounters()
	if st := a.Stats(); st.QueueDrops != 2 || drops != 2 || matched != 6 || st.Shipped != 4 {
		t.Fatalf("agent queue drops %d, shipped %d; central heard matched %d, drops %d; want 2, 4, 6, 2", st.QueueDrops, st.Shipped, matched, drops)
	}

	sink.down.Store(true)
	logFlush(2)
	a.Stop(4)
	if st := a.Stats(); st.Kept != 2 {
		t.Fatalf("kept %d tuples, want 2", st.Kept)
	}
	a.Close()
	if st := a.Stats(); st.QueueDrops != 4 || st.Kept != 0 || st.Shipped+st.QueueDrops != st.Matched {
		t.Fatalf("after Close: %+v; want queue drops 4, nothing kept, matched = shipped + drops", st)
	}
	if n := a.keptDrops.Value(); n != 4 {
		t.Fatalf("scrub_host_spill_drops_total = %d, want 4", n)
	}
}

// TestAgentHeartbeatsWhenQuiet pins the liveness contract on the agent
// side: an active query with nothing to report still ships counter-only
// batches on the heartbeat cadence, so central's lease stays renewed.
func TestAgentHeartbeatsWhenQuiet(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) {
		c.HeartbeatInterval = time.Millisecond
	})
	if err := a.Start(transport.HostQuery{QueryID: 3, EventType: "bid"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		sink.mu.Lock()
		n := len(sink.batches)
		sink.mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d heartbeats for a quiet query, want >= 3", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, b := range func() []transport.TupleBatch {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return append([]transport.TupleBatch(nil), sink.batches...)
	}() {
		if len(b.Tuples) != 0 || b.QueryID != 3 {
			t.Fatalf("unexpected batch %+v", b)
		}
	}
}
