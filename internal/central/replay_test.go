package central

import (
	"testing"
	"time"

	"scrub/internal/transport"
)

// replayPlan builds a single-type count plan with an absolute span and a
// REPLAY clause, the shape every hold test needs: start at 100s event
// time, replay the preceding 30s.
func replayPlan(t *testing.T) Plan {
	t.Helper()
	p := buildPlan(t, `select count(*) from bid window 10s`, 1, 1, 1)
	p.StartNanos = sec(100)
	p.EndNanos = sec(200)
	p.Replay = 30 * time.Second
	return p
}

// epochBatch tags a bid batch as replayed history.
func epochBatch(host string, done bool, tuples ...transport.Tuple) transport.TupleBatch {
	b := bidBatch(1, host, tuples...)
	b.ReplayEpoch = 1
	b.ReplayDone = done
	return b
}

// winStarts indexes emitted windows by start nanos.
func winStarts(wins []transport.ResultWindow) map[int64]transport.ResultWindow {
	out := make(map[int64]transport.ResultWindow, len(wins))
	for _, w := range wins {
		out[w.WindowStart] = w
	}
	return out
}

func TestReplayHoldUntilDoneMarker(t *testing.T) {
	// While history is in flight, live tuples racing ahead must not close
	// replay-era windows; the ReplayDone marker releases everything.
	vc := &virtualClock{}
	vc.set(1000 * time.Second)
	e := NewEngineWith(Options{LeaseTTL: 2 * time.Second, Clock: vc.now})
	c := &collector{}
	if err := e.StartQuery(replayPlan(t), c.emit); err != nil {
		t.Fatal(err)
	}

	// Live tuples far past the start: watermark 125s would normally close
	// every window ending ≤ 123s.
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(105)), tup(2, sec(125))))
	if got := c.all(); len(got) != 0 {
		t.Fatalf("hold violated: %d windows closed before replay finished", len(got))
	}
	// Wall-clock ticks must hold too.
	e.Tick(sec(1001))
	if got := c.all(); len(got) != 0 {
		t.Fatalf("Tick closed %d windows during the hold", len(got))
	}

	// History arrives: two tuples inside [70s, 100s). Still held — the
	// stream is replaying until its done marker.
	e.HandleBatch(epochBatch("h1", false, tup(3, sec(80)), tup(4, sec(95))))
	if got := c.all(); len(got) != 0 {
		t.Fatalf("epoch batch closed %d windows before the done marker", len(got))
	}

	// The empty done marker settles the replay and must itself trigger the
	// deferred close, tuples or not.
	e.HandleBatch(epochBatch("h1", true))
	byStart := winStarts(c.all())
	if len(byStart) == 0 {
		t.Fatal("done marker released the hold but closed nothing")
	}
	for _, start := range []int64{sec(80), sec(90), sec(100)} {
		w, ok := byStart[start]
		if !ok {
			t.Fatalf("window starting at %ds not emitted; got %v", start/sec(1), byStart)
		}
		if w.Rows[0][0].String() != "1" {
			t.Errorf("window @%ds count = %v, want 1", start/sec(1), w.Rows[0])
		}
	}
}

func TestReplaySpanFilterExtendsBack(t *testing.T) {
	// The span filter accepts [start−replay, start); older tuples drop.
	vc := &virtualClock{}
	vc.set(1000 * time.Second)
	e := NewEngineWith(Options{LeaseTTL: 2 * time.Second, Clock: vc.now})
	c := &collector{}
	if err := e.StartQuery(replayPlan(t), c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(epochBatch("h1", false,
		tup(1, sec(60)), // before 70s: out of the replayed span
		tup(2, sec(75)), // in [70s, 100s): accepted
	))
	e.HandleBatch(bidBatch(1, "h1", tup(3, sec(130))))
	e.HandleBatch(epochBatch("h1", true))
	stats, ok := e.Stats(1)
	if !ok {
		t.Fatal("Stats missed")
	}
	if stats.TuplesIn != 2 {
		t.Errorf("TuplesIn = %d, want 2 (60s tuple must be span-filtered)", stats.TuplesIn)
	}
}

func TestReplayHoldDeadlineReleases(t *testing.T) {
	// No host ever announces replay (nothing was recording): the hold must
	// release at the deadline, not wedge the query forever.
	vc := &virtualClock{}
	vc.set(1000 * time.Second)
	e := NewEngineWith(Options{LeaseTTL: 2 * time.Second, Clock: vc.now})
	c := &collector{}
	if err := e.StartQuery(replayPlan(t), c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1", tup(1, sec(105)), tup(2, sec(125))))
	e.Tick(sec(1001))
	if got := c.all(); len(got) != 0 {
		t.Fatalf("closed %d windows before the deadline", len(got))
	}
	// Deadline is start + 2×TTL = 1004s on the lease clock.
	vc.set(1005 * time.Second)
	e.Tick(sec(1005))
	if got := c.all(); len(got) == 0 {
		t.Fatal("deadline passed but the hold never released")
	}
}

func TestReplayEvictionSettlesHold(t *testing.T) {
	// A host dies mid-replay: its eviction must settle the hold so the
	// surviving streams' windows close without waiting out the deadline.
	vc := &virtualClock{}
	vc.set(1000 * time.Second)
	e := NewEngineWith(Options{LeaseTTL: 2 * time.Second, Clock: vc.now})
	c := &collector{}
	if err := e.StartQuery(replayPlan(t), c.emit); err != nil {
		t.Fatal(err)
	}
	// h1 announces replay and goes silent; h2 stays live.
	e.HandleBatch(epochBatch("h1", false, tup(1, sec(80))))
	vc.set(1002500 * time.Millisecond)
	e.HandleBatch(bidBatch(1, "h2", tup(2, sec(105)), tup(3, sec(125))))
	if got := c.all(); len(got) != 0 {
		t.Fatalf("closed %d windows while h1 was still replaying", len(got))
	}
	// h1's lease (renewed at 1000s, TTL 2s) is expired; the deadline
	// (1004s) is not yet reached — the release must come from eviction.
	e.Tick(sec(1003))
	byStart := winStarts(c.all())
	if len(byStart) == 0 {
		t.Fatal("eviction settled the replay but closed nothing")
	}
	if _, ok := byStart[sec(100)]; !ok {
		t.Errorf("window @100s not closed after eviction; got %v", byStart)
	}
}
