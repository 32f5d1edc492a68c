package central

import (
	"testing"
	"time"

	"scrub/internal/ql"
)

func ms(n int64) int64 { return n * int64(time.Millisecond) }

// TestCloseBounds: a declared lateness is both bounds; unset, the
// watermark waits one slide, never more than the 2 s wall-clock hold.
func TestCloseBounds(t *testing.T) {
	for _, tc := range []struct {
		window, slide, lateness time.Duration
		slack, hold             time.Duration
	}{
		{window: 100 * time.Millisecond, slack: 100 * time.Millisecond, hold: 2 * time.Second},
		{window: time.Second, slide: 250 * time.Millisecond, slack: 250 * time.Millisecond, hold: 2 * time.Second},
		{window: 4 * time.Second, slide: 2 * time.Second, slack: 2 * time.Second, hold: 2 * time.Second},
		{window: 10 * time.Second, slack: 2 * time.Second, hold: 2 * time.Second},
		{window: 100 * time.Millisecond, lateness: 5 * time.Second, slack: 5 * time.Second, hold: 5 * time.Second},
		{window: time.Hour, lateness: time.Second, slack: time.Second, hold: time.Second},
	} {
		p := Plan{Plan: ql.Plan{Select: []ql.PlannedItem{{}}, Window: tc.window, Slide: tc.slide},
			QueryID: 1, Types: []string{"bid"}, Columns: [][]string{nil}, Lateness: tc.lateness}
		if err := p.fillDefaults(); err != nil {
			t.Fatal(err)
		}
		if slack, hold := p.closeBounds(); slack != tc.slack || hold != tc.hold {
			t.Errorf("window %v slide %v lateness %v: bounds (%v, %v), want (%v, %v)",
				tc.window, tc.slide, tc.lateness, slack, hold, tc.slack, tc.hold)
		}
		if p.Lateness != tc.lateness {
			t.Errorf("fillDefaults rewrote lateness %v to %v", tc.lateness, p.Lateness)
		}
	}
	bad := Plan{Plan: ql.Plan{Select: []ql.PlannedItem{{}}, Window: time.Second},
		QueryID: 1, Types: []string{"bid"}, Columns: [][]string{nil}, Lateness: -time.Second}
	if err := bad.fillDefaults(); err == nil {
		t.Error("a negative lateness was accepted")
	}
}

// TestDefaultCloseFollowsSlowestStream: 100 ms windows, no declared
// lateness, two hosts shipping 50 ms apart. [0, 100ms) stays open — and
// takes a straggler — until the slower host is a slide past its end, and
// closes then, not two seconds later.
func TestDefaultCloseFollowsSlowestStream(t *testing.T) {
	e := NewEngine()
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 100ms`, 1, 2, 2)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	send := func(host string, ts int64) { e.HandleBatch(bidBatch(1, host, tup(1, ts))) }
	send("h1", ms(10))
	send("h2", ms(40))
	send("h1", ms(150))
	send("h2", ms(100))
	send("h1", ms(249))
	send("h2", ms(199)) // watermark 199ms: bound 99ms
	if wins := c.all(); len(wins) != 0 {
		t.Fatalf("closed before the slower host passed end + slide: %+v", wins)
	}
	send("h2", ms(90)) // disorder inside one slide is folded in
	send("h2", ms(200))
	wins := c.all()
	if len(wins) != 1 || wins[0].WindowStart != 0 || wins[0].Rows[0][0].String() != "3" || wins[0].Stats.LateDrops != 0 {
		t.Fatalf("at watermark 200ms: want [0,100ms) with 3 tuples and no late drops, got %+v", wins)
	}
	// [100ms, 200ms) waits for the slower host too.
	send("h1", ms(350))
	if got := len(c.all()); got != 1 {
		t.Fatalf("%d windows closed while the slower host sat at 200ms, want 1", got)
	}
	send("h2", ms(300))
	if got := len(c.all()); got != 2 {
		t.Fatalf("%d windows closed at watermark 300ms, want 2", got)
	}
}

// TestDefaultSlackCapsAtHold: a default sliding plan whose slide is 2 s or
// more closes 2 s of event time behind the slowest stream, as before
// (TestGroupedCountOverWindows has the tumbling case).
func TestDefaultSlackCapsAtHold(t *testing.T) {
	for _, src := range []string{
		`select count(*) from bid window 10s slide 5s`,
		`select count(*) from bid window 4s slide 2s`,
	} {
		e := NewEngine()
		c := &collector{}
		p := buildPlan(t, src, 1, 1, 1)
		if err := e.StartQuery(p, c.emit); err != nil {
			t.Fatal(err)
		}
		e.HandleBatch(bidBatch(1, "h1", tup(1, sec(1))))
		first := int64(p.Slide) // the end of the earliest window holding 1s
		e.HandleBatch(bidBatch(1, "h1", tup(2, first+sec(2)-1)))
		if wins := c.all(); len(wins) != 0 {
			t.Fatalf("%s: closed at watermark end + 2s − 1ns", src)
		}
		e.HandleBatch(bidBatch(1, "h1", tup(3, first+sec(2))))
		if wins := c.all(); len(wins) != 1 || wins[0].WindowEnd != first {
			t.Fatalf("%s: at watermark end + 2s want the window ending %v, got %+v", src, time.Duration(first), wins)
		}
	}
}

// TestQuietStreamHoldsUntilWallClock: a stream that is alive but quiet —
// leased, its partial chunk still on its host — keeps a default 100 ms
// window open however far its peer runs ahead, until the wall clock is
// the 2 s hold past the window's end.
func TestQuietStreamHoldsUntilWallClock(t *testing.T) {
	e := NewEngineWith(Options{LeaseTTL: time.Hour})
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 100ms`, 1, 2, 2)
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "quiet", tup(1, ms(50))))
	for ts := int64(100); ts <= 5000; ts += 100 {
		e.HandleBatch(bidBatch(1, "busy", tup(2, ms(ts))))
	}
	e.Tick(ms(2100) - 1)
	if wins := c.all(); len(wins) != 0 {
		t.Fatalf("closed before wall clock end + 2s: %+v", wins)
	}
	e.Tick(ms(2100))
	if wins := c.all(); len(wins) != 1 || wins[0].WindowStart != 0 || wins[0].Rows[0][0].String() != "1" {
		t.Fatalf("at wall clock end + 2s want [0,100ms) with the quiet host's tuple, got %+v", wins)
	}
}

// TestDeclaredLatenessIsTheHold: a plan that sets Lateness waits on it by
// wall clock as well as by event time (TestLatenessGraceAtCentral), even
// on a window far shorter than it.
func TestDeclaredLatenessIsTheHold(t *testing.T) {
	e := NewEngineWith(Options{LeaseTTL: time.Hour})
	c := &collector{}
	p := buildPlan(t, `select count(*) from bid window 100ms`, 1, 1, 1)
	p.Lateness = time.Second
	if err := e.StartQuery(p, c.emit); err != nil {
		t.Fatal(err)
	}
	e.HandleBatch(bidBatch(1, "h1", tup(1, ms(50))))
	e.Tick(ms(1100) - 1)
	if len(c.all()) != 0 {
		t.Fatal("closed at wall clock end + lateness − 1ns")
	}
	e.Tick(ms(1100))
	if wins := c.all(); len(wins) != 1 || wins[0].WindowStart != 0 {
		t.Fatalf("at wall clock end + lateness: %+v", wins)
	}
}
