package server

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/event"
	"scrub/internal/obs"
	"scrub/internal/transport"
)

// newMeteredTestHub is newTestHub over cat, with the hub's series
// registered on reg and its log lines to logf (dropped when nil).
func newMeteredTestHub(t *testing.T, cat *event.Catalog, reg *obs.Registry, logf func(string, ...any)) (*Hub, *Server, *cluster.Registry) {
	t.Helper()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return listenT(t, Addrs{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"},
		Config{Catalog: cat, Engine: central.NewEngine(), TickInterval: 20 * time.Millisecond}, reg, logf)
}

// listenT is Listen with the node closed at the test's end.
func listenT(t *testing.T, addrs Addrs, cfg Config, reg *obs.Registry, logf func(string, ...any)) (*Hub, *Server, *cluster.Registry) {
	t.Helper()
	n, err := Listen(addrs, cfg, reg, logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n.Hub, n.Server, n.Registry
}

// counterValue reads one unlabelled counter from reg; -1 if it is not
// registered.
func counterValue(reg *obs.Registry, name string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Labels == "" {
			return s.Value
		}
	}
	return -1
}

// submitT submits text on a raw client connection and returns the id the
// hub accepted it under.
func submitT(t *testing.T, c *transport.Conn, text string) uint64 {
	t.Helper()
	if err := c.Send(transport.SubmitQuery{Text: text}); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	acc, ok := msg.(transport.QueryAccepted)
	if !ok {
		t.Fatalf("submit %q: got %s, want QueryAccepted", text, transport.Name(msg))
	}
	return acc.QueryID
}

// noteCatalog is a bid event with a string column wide enough that a few
// raw rows make a large window.
func noteCatalog() *event.Catalog {
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "note", Kind: event.KindString},
	))
	return cat
}

// TestHubCutsSlowClient is the stall reproduction over real TCP: one
// client submits a raw query whose windows carry a 2 KB row each and
// never reads them; a second client's count(*) windows must keep coming.
// The hub closes the slow client's connection once a message has waited
// clientLag for it, the teardown cancels its query, and the close is
// counted once.
func TestHubCutsSlowClient(t *testing.T) {
	reg := obs.NewRegistry()
	hub, srv, registry := newMeteredTestHub(t, noteCatalog(), reg, nil)
	_ = registry.Register(cluster.HostInfo{Name: "h1", Service: "BidServers"})

	slow := dialT(t, hub.ClientAddr())
	slowID := submitT(t, slow, `select note from bid window 10ms duration 1h`)
	fast := dialT(t, hub.ClientAddr())
	fastID := submitT(t, fast, `select count(*) from bid window 10ms duration 1h`)

	// The fast client reads everything; seen counts its windows and keeps
	// the longest wait between two.
	var seen struct {
		sync.Mutex
		n    int
		last time.Time
		gap  time.Duration
	}
	go func() {
		for {
			msg, err := fast.Recv()
			if err != nil {
				return
			}
			if rw, ok := msg.(transport.ResultWindow); ok && rw.QueryID == fastID {
				seen.Lock()
				if now := time.Now(); !seen.last.IsZero() && now.Sub(seen.last) > seen.gap {
					seen.gap = now.Sub(seen.last)
				}
				seen.n, seen.last = seen.n+1, time.Now()
				seen.Unlock()
			}
		}
	}()
	fastSeen := func() (int, time.Time, time.Duration) {
		seen.Lock()
		defer seen.Unlock()
		return seen.n, seen.last, seen.gap
	}

	// One host feeds both queries a round a millisecond, so the 2 s the
	// stalled client's writer may lag stays near 60 MB of windows. Each
	// round moves event time 100 ms: ten slow-client windows of one 2 KB
	// row, and one fast-client window of one row.
	data := dialT(t, hub.DataAddr())
	if err := data.Send(transport.DataHello{HostID: "h1"}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		note := event.Str(strings.Repeat("n", 2048))
		rows := make([]transport.Tuple, 10)
		ts := time.Now().UnixNano()
		for rid := uint64(1); ; rid++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range rows {
				rows[i] = transport.Tuple{RequestID: rid<<8 | uint64(i), TsNanos: ts + int64(i)*int64(10*time.Millisecond),
					Values: []event.Value{note}}
			}
			if data.Send(transport.TupleBatch{QueryID: slowID, HostID: "h1", Tuples: rows, EffRate: 1}) != nil ||
				data.Send(transport.TupleBatch{QueryID: fastID, HostID: "h1", EffRate: 1,
					Tuples: []transport.Tuple{{RequestID: rid, TsNanos: ts, Values: []event.Value{event.Int(1)}}}}) != nil {
				return
			}
			ts += int64(100 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()
	// A hub that wedges on the slow client unblocks once its socket
	// closes: stop the feeder through its connection, then close both.
	t.Cleanup(func() {
		close(stop)
		data.Close()
		slow.Close()
		feeder.Wait()
	})

	const closes = "scrub_server_slow_client_closes_total"
	began := time.Now()
	deadline := began.Add(4 * time.Second)
	cut := func() bool {
		if counterValue(reg, closes) != 1 {
			return false
		}
		for _, id := range srv.Active() {
			if id == slowID {
				return false
			}
		}
		return true
	}
	for !cut() {
		if time.Now().After(deadline) {
			n, last, _ := fastSeen()
			t.Fatalf("after %v: %s = %v, active = %v, the fast client's last of %d windows %v ago; want the slow client cut off (counter 1), its query %d gone",
				time.Since(began), closes, counterValue(reg, closes), srv.Active(), n, time.Since(last).Round(time.Millisecond), slowID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The fast client's windows kept coming while the slow client stalled,
	// and keep coming after it was cut.
	cutAfter := time.Since(began)
	atCut, _, _ := fastSeen()
	waitCond(t, "20 more windows at the fast client", func() bool {
		n, _, _ := fastSeen()
		return n >= atCut+20
	})
	n, _, gap := fastSeen()
	t.Logf("cut after %v, %d fast-client windows by then; %d windows in all, longest wait %v", cutAfter, atCut, n, gap)
	if cutAfter < clientLag {
		t.Errorf("the slow client was cut after %v, before any message could wait clientLag (%v)", cutAfter, clientLag)
	}
	if gap > time.Second {
		t.Errorf("the fast client waited %v between two windows, want < 1 s", gap)
	}
	if n := counterValue(reg, closes); n != 1 {
		t.Errorf("%s = %v after the cut, want 1", closes, n)
	}

	// The slow client's connection is closed: what was buffered drains,
	// then the read fails.
	_ = slow.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		_, err := slow.Recv()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Error("the slow client's connection is still open")
		}
		if err != nil {
			break
		}
	}
	if time.Since(began) > 5*time.Second {
		t.Errorf("the reproduction took %v, want under 5 s", time.Since(began))
	}
}

// TestHubDeliversBurstToReadingClient: one event opens 10 800 windows of
// a `window 3h slide 1s` query, and the cancel's flush emits all of them
// at once, far more than a reading client's writer has written by the
// time the flush ends. The client reads them all and its QueryDone, and
// it is not cut off.
func TestHubDeliversBurstToReadingClient(t *testing.T) {
	reg := obs.NewRegistry()
	hub, _, registry := newMeteredTestHub(t, testCatalog(), reg, nil)
	_ = registry.Register(cluster.HostInfo{Name: "h1", Service: "BidServers"})
	client := dialT(t, hub.ClientAddr())
	id := submitT(t, client, `select count(*) from bid window 3h slide 1s duration 3h`)

	data := dialT(t, hub.DataAddr())
	for _, m := range []transport.Message{
		transport.DataHello{HostID: "h1"},
		transport.TupleBatch{QueryID: id, HostID: "h1", EffRate: 1, MatchedTotal: 1, SampledTotal: 1,
			Tuples: []transport.Tuple{{RequestID: 1, TsNanos: time.Now().UnixNano(), Values: []event.Value{event.Int(1)}}}},
		transport.BatchManifest{Seq: 1},
	} {
		if err := data.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := data.Recv(); err != nil { // the ack: the batch is in
		t.Fatal(err)
	}
	began := time.Now()
	if err := client.Send(transport.CancelQuery{QueryID: id}); err != nil {
		t.Fatal(err)
	}
	_ = client.SetReadDeadline(time.Now().Add(10 * time.Second))
	windows := 0
	for done := false; !done; {
		msg, err := client.Recv()
		if err != nil {
			t.Fatalf("after %d windows: %v", windows, err)
		}
		switch m := msg.(type) {
		case transport.ResultWindow:
			windows++
		case transport.QueryDone:
			done = true
		default:
			t.Fatalf("got %s, want windows then QueryDone", transport.Name(m))
		}
	}
	t.Logf("%d windows and QueryDone read %v after the cancel", windows, time.Since(began))
	if windows != 3*3600 {
		t.Errorf("read %d windows, want %d", windows, 3*3600)
	}
	if n := counterValue(reg, "scrub_server_slow_client_closes_total"); n != 0 {
		t.Errorf("slow-client closes = %v, want 0", n)
	}
	if err := client.Send(transport.ListQueries{}); err != nil {
		t.Fatal(err)
	}
	if msg, err := client.Recv(); err != nil {
		t.Fatalf("the connection after the burst: %v", err)
	} else if _, ok := msg.(transport.QueryList); !ok {
		t.Fatalf("got %s, want QueryList", transport.Name(msg))
	}
}

// TestHubCutsClientOverMaxFrame: a raw window of three 6 MB rows is over
// transport.MaxFrame, so the client cannot be sent it. The hub closes the
// connection after the windows before it, logs why, and the teardown
// cancels the client's query; the close is no slow client's.
func TestHubCutsClientOverMaxFrame(t *testing.T) {
	reg := obs.NewRegistry()
	var logged struct {
		sync.Mutex
		lines []string
	}
	hub, srv, registry := newMeteredTestHub(t, noteCatalog(), reg, func(format string, args ...any) {
		logged.Lock()
		logged.lines = append(logged.lines, fmt.Sprintf(format, args...))
		logged.Unlock()
	})
	_ = registry.Register(cluster.HostInfo{Name: "h1", Service: "BidServers"})
	client := dialT(t, hub.ClientAddr())
	id := submitT(t, client, `select note from bid window 1s duration 1h`)

	// Window 0 holds one short row and window 1 three 6 MB rows, each row
	// in its own batch; a row in window 4 closes both.
	data := dialT(t, hub.DataAddr())
	start := time.Now().Truncate(time.Second).Add(time.Second).UnixNano()
	big := event.Str(strings.Repeat("n", 6<<20))
	msgs := []transport.Message{transport.DataHello{HostID: "h1"}}
	row := func(rid uint64, ts int64, v event.Value) transport.Message {
		return transport.TupleBatch{QueryID: id, HostID: "h1", EffRate: 1,
			Tuples: []transport.Tuple{{RequestID: rid, TsNanos: ts, Values: []event.Value{v}}}}
	}
	msgs = append(msgs, row(1, start, event.Str("short")))
	for rid := uint64(2); rid <= 4; rid++ {
		msgs = append(msgs, row(rid, start+int64(time.Second), big))
	}
	msgs = append(msgs, row(5, start+int64(4*time.Second), event.Str("later")))
	for _, m := range msgs {
		if err := data.Send(m); err != nil {
			t.Fatal(err)
		}
	}

	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	var starts []int64
	for {
		msg, err := client.Recv()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("the connection is still open, want it closed at the window over MaxFrame")
		}
		if err != nil {
			break
		}
		if rw, ok := msg.(transport.ResultWindow); ok {
			starts = append(starts, rw.WindowStart)
		}
	}
	if len(starts) != 1 || starts[0] != start {
		t.Errorf("windows before the close start at %v, want only the first, %d", starts, start)
	}
	waitCond(t, "the query cancelled", func() bool { return len(srv.Active()) == 0 })
	if n := counterValue(reg, "scrub_server_slow_client_closes_total"); n != 0 {
		t.Errorf("slow-client closes = %v, want 0", n)
	}
	logged.Lock()
	defer logged.Unlock()
	if len(logged.lines) != 1 || !strings.Contains(logged.lines[0], "frame too large") {
		t.Errorf("log = %q, want one line naming the frame too large", logged.lines)
	}
}
