package server

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/transport"
)

// TestStaleQueryIDIsNotReused: a host still runs query 1 of a server that
// is gone, and registers with this one reporting it. A new query must not
// get id 1, or central folds the stale query's tuples into it, and the
// host must stop the query no server owns.
func TestStaleQueryIDIsNotReused(t *testing.T) {
	hub, srv, registry := newTestHub(t)
	a, err := host.New(host.Config{
		HostID: "h1", Service: "BidServers", DC: "DC1", Catalog: testCatalog(),
		Sink: host.SinkFunc(func(transport.TupleBatch) error { return nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	start := time.Now()
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", SampleEvents: 1,
		StartNanos: start.UnixNano(), EndNanos: start.Add(time.Hour).UnixNano()}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = a.RunControlWith(ctx, hub.ControlAddr(), host.ControlOptions{}) }()
	waitCond(t, "h1 registered", func() bool { return registry.Len() == 1 })

	cb, _ := noopCallbacks()
	info, err := srv.Submit(`select count(*) from bid where bid_price < 0 window 1s duration 10s`, cb)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Cancel(info.ID)
	if info.ID == 1 {
		t.Errorf("Submit handed out id 1, which h1 runs for a query no server owns")
	}
	waitCond(t, "h1 to stop the stale query 1", func() bool { return !slices.Contains(a.ActiveQueries(), 1) })
}

// startHubAt is newTestHub over cat on the given addresses, so a test can
// start a second server where a first one was.
func startHubAt(t *testing.T, cat *event.Catalog, client, control, data string) (*Hub, *Server, *cluster.Registry) {
	t.Helper()
	registry := cluster.NewRegistry()
	hub, err := NewHub(registry, client, control, data)
	if err != nil {
		t.Fatal(err)
	}
	hub.SetLogf(func(string, ...any) {})
	srv, err := New(Config{Catalog: cat, Registry: registry, Engine: central.NewEngine(),
		Dispatcher: hub, TickInterval: 20 * time.Millisecond})
	if err != nil {
		hub.Close()
		t.Fatal(err)
	}
	hub.SetServer(srv)
	hub.Serve()
	t.Cleanup(func() {
		srv.Close()
		hub.Close()
	})
	return hub, srv, registry
}

// TestRestartedServerCountsNoStaleTuples is the restart over real TCP: an
// agent logs bid events for a query of a server that stops without
// stopping it (the hub goes first, so no StopQuery reaches the host). A
// server started on the same addresses runs a count(*) over click, which
// the agent never logs: the agent re-registers, and not one of the stale
// query's bid tuples may be counted in the new query.
func TestRestartedServerCountsNoStaleTuples(t *testing.T) {
	cat := testCatalog()
	cat.MustRegister(event.MustSchema("click", event.FieldDef{Name: "user_id", Kind: event.KindInt}))
	hub1, srv1, registry1 := startHubAt(t, cat, "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0")
	client, control, data := hub1.ClientAddr(), hub1.ControlAddr(), hub1.DataAddr()

	sink := host.NewNetSink(data, "h1")
	t.Cleanup(sink.Close)
	a, err := host.New(host.Config{HostID: "h1", Service: "BidServers", DC: "DC1", Catalog: cat,
		Sink: sink, FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = a.RunControlWith(ctx, control, host.ControlOptions{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond})
	}()
	waitCond(t, "h1 registered", func() bool { return registry1.Len() == 1 })

	// The agent logs a bid a millisecond until the test ends.
	var logger sync.WaitGroup
	stop := make(chan struct{})
	logger.Add(1)
	go func() {
		defer logger.Done()
		s, _ := cat.Lookup("bid")
		for rid := uint64(1); ; rid++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			a.Log(event.NewBuilder(s).SetRequestID(rid).SetTime(time.Now()).
				Int("user_id", 1).Float("bid_price", 1).MustBuild())
		}
	}()
	defer func() {
		close(stop)
		logger.Wait()
	}()

	cb, _ := noopCallbacks()
	stale, err := srv1.Submit(`select count(*) from bid window 1s duration 1h`, cb)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "h1 to run the first server's query", func() bool { return slices.Contains(a.ActiveQueries(), stale.ID) })
	hub1.Close()
	srv1.Close()

	_, srv2, registry2 := startHubAt(t, cat, client, control, data)
	waitCond(t, "h1 registered again", func() bool { return registry2.Len() == 1 })
	var mu sync.Mutex
	var windows []transport.ResultWindow
	done := make(chan transport.QueryDone, 1)
	info, err := srv2.Submit(`select count(*) from click window 1s duration 1h`, Callbacks{
		Window: func(rw transport.ResultWindow) {
			mu.Lock()
			windows = append(windows, rw)
			mu.Unlock()
		},
		Done: func(d transport.QueryDone) { done <- d },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Watch for 2.5 s while the agent logs bids: a window opens only when
	// a tuple reaches it, so with nothing stale counted there is no window
	// to wait for.
	time.Sleep(2500 * time.Millisecond)
	if slices.Contains(a.ActiveQueries(), stale.ID) {
		t.Errorf("h1 still runs the first server's query %d", stale.ID)
	}
	if err := srv2.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	d := <-done
	mu.Lock()
	defer mu.Unlock()
	var counted int64
	for _, rw := range windows {
		for _, row := range rw.Rows {
			n, _ := row[0].AsInt()
			counted += n
		}
	}
	if d.Stats.TuplesIn != 0 || counted != 0 {
		t.Errorf("the new query (id %d, the stale one's %d) took in %d tuples and counted %d in %d windows; the agent logs no click",
			info.ID, stale.ID, d.Stats.TuplesIn, counted, len(windows))
	}
}
