package host

import (
	"sync"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/obs"
	"scrub/internal/transport"
)

func oneTupleBatch(queryID uint64, v int64) transport.TupleBatch {
	return transport.TupleBatch{
		QueryID: queryID, HostID: "h9", TypeIdx: 0,
		Tuples: []transport.Tuple{{RequestID: uint64(v), TsNanos: v, Values: []event.Value{event.Int(v)}}},
	}
}

// TestNetSinkSpillRedelivers covers the disconnect arc: sends during an
// outage spill (bounded, oldest evicted into the drop accounting, deep
// copies so recycled agent memory can't corrupt them), and a reconnect
// drains the survivors in order before new data.
func TestNetSinkSpillRedelivers(t *testing.T) {
	// Reserve an address, then shut the listener so dials fail.
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close()

	var mu sync.Mutex
	dropped := make(map[uint64]uint64) // queryID -> tuples
	reg := obs.NewRegistry()
	sink := NewNetSinkWith(addr, "h9", NetSinkOptions{
		DialTimeout: 200 * time.Millisecond,
		SpillLimit:  3,
		Metrics:     reg,
	})
	sink.SetDropAccounting(func(queryID uint64, typeIdx uint8, n uint64) {
		mu.Lock()
		dropped[queryID] += n
		mu.Unlock()
	})
	defer sink.Close()

	// Five one-tuple sends against a dead endpoint: all error, the last
	// three spill, the first two are evicted and accounted.
	for v := int64(1); v <= 5; v++ {
		b := oneTupleBatch(uint64(v), v)
		if err := sink.SendBatch(b); err == nil {
			t.Fatalf("send %d against dead endpoint should error", v)
		}
		// The sink must have copied: recycle the caller's memory.
		b.Tuples[0] = transport.Tuple{}
	}
	mu.Lock()
	if dropped[1] != 1 || dropped[2] != 1 || len(dropped) != 2 {
		t.Fatalf("dropped = %v, want queries 1 and 2 evicted", dropped)
	}
	mu.Unlock()
	spillDrops := -1.0
	for _, sm := range reg.Snapshot() {
		if sm.Name == "scrub_host_spill_drops_total" {
			spillDrops = sm.Value
		}
	}
	if spillDrops != 2 {
		t.Fatalf("scrub_host_spill_drops_total = %g, want 2", spillDrops)
	}

	// Central comes back on the same address.
	l2, err := transport.Listen(addr)
	if err != nil {
		t.Skipf("could not re-listen on %s: %v", addr, err)
	}
	defer l2.Close()
	fc := &fakeCentral{l: l2}
	go func() {
		for {
			conn, err := l2.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					msg, err := conn.Recv()
					if err != nil {
						return
					}
					fc.mu.Lock()
					switch m := msg.(type) {
					case transport.DataHello:
						fc.hellos = append(fc.hellos, m.HostID)
					case transport.TupleBatch:
						fc.batches = append(fc.batches, m)
					}
					fc.mu.Unlock()
				}
			}()
		}
	}()

	if err := sink.SendBatch(oneTupleBatch(6, 6)); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		fc.mu.Lock()
		n := len(fc.batches)
		fc.mu.Unlock()
		if n == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("central got %d batches, want 4 (3 spilled + 1 fresh)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	wantOrder := []uint64{3, 4, 5, 6}
	for i, b := range fc.batches {
		if b.QueryID != wantOrder[i] {
			t.Fatalf("batch %d is query %d, want %d (order %v)", i, b.QueryID, wantOrder[i], fc.batches)
		}
		// Deep copy held: values survived the caller recycling its memory.
		if len(b.Tuples) != 1 || b.Tuples[0].Values[0].String() != event.Int(int64(wantOrder[i])).String() {
			t.Fatalf("batch %d tuples = %+v, want value %d", i, b.Tuples, wantOrder[i])
		}
		if got, want := b.Tuples[0].TsNanos, int64(wantOrder[i]); got != want {
			t.Fatalf("batch %d ts = %d, want %d (spill corrupted?)", i, got, want)
		}
	}
}

// TestNetSinkSpillDisabled checks SpillLimit < 0 restores pure
// drop-on-failure: nothing buffers, nothing redelivers.
func TestNetSinkSpillDisabled(t *testing.T) {
	sink := NewNetSinkWith("127.0.0.1:1", "h", NetSinkOptions{
		DialTimeout: 50 * time.Millisecond,
		SpillLimit:  -1,
	})
	sink.SetDropAccounting(func(uint64, uint8, uint64) {
		t.Error("disabled spill must not account drops")
	})
	defer sink.Close()
	if err := sink.SendBatch(oneTupleBatch(1, 1)); err == nil {
		t.Fatal("send to unreachable central should fail")
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.spill) != 0 {
		t.Fatalf("spill = %d batches, want none", len(sink.spill))
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

// TestAccountDropsFeedsCounters checks the sink-to-agent drop path: a
// charge lands in the query's cumulative QueueDrops and re-arms the
// heartbeat flag so central hears about it.
func TestAccountDropsFeedsCounters(t *testing.T) {
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) {
		c.HeartbeatInterval = time.Hour // isolate the dirty-flag path
	})
	if err := a.Start(transport.HostQuery{QueryID: 4, EventType: "bid"}); err != nil {
		t.Fatal(err)
	}
	a.AccountDrops(4, 0, 7)
	a.AccountDrops(999, 0, 2) // unknown query: agent-level only
	a.Flush()
	if got := a.Stats().QueueDrops; got != 9 {
		t.Fatalf("agent QueueDrops = %d, want 9", got)
	}
	_, _, drops := sink.lastCounters()
	if drops != 7 {
		t.Fatalf("shipped QueueDrops = %d, want 7", drops)
	}
}
