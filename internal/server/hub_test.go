package server

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/event"
	"scrub/internal/transport"
)

// newTestHub assembles a hub + server on ephemeral ports.
func newTestHub(t *testing.T) (*Hub, *Server, *cluster.Registry) {
	t.Helper()
	registry := cluster.NewRegistry()
	hub, err := NewHub(registry, "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub.SetLogf(func(string, ...any) {})
	srv, err := New(Config{
		Catalog:      testCatalog(),
		Registry:     registry,
		Engine:       central.NewEngine(),
		Dispatcher:   hub,
		TickInterval: 20 * time.Millisecond,
	})
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

func dialT(t *testing.T, addr string) *transport.Conn {
	t.Helper()
	c, err := transport.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHubAgentRegistrationLifecycle(t *testing.T) {
	hub, _, registry := newTestHub(t)

	agent := dialT(t, hub.ControlAddr())
	if err := agent.Send(transport.RegisterHost{HostID: "h1", Service: "BidServers", DC: "DC1"}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "registration", func() bool { return registry.Len() == 1 })
	if h, ok := registry.Lookup("h1"); !ok || h.Service != "BidServers" {
		t.Fatalf("registry entry = %+v, %v", h, ok)
	}

	// The hub can now dispatch to the host.
	if err := hub.SendToHost("h1", transport.StopQuery{QueryID: 9}); err != nil {
		t.Fatal(err)
	}
	msg, err := agent.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if sq, ok := msg.(transport.StopQuery); !ok || sq.QueryID != 9 {
		t.Fatalf("agent got %s", transport.Name(msg))
	}

	// Disconnect deregisters.
	agent.Close()
	waitCond(t, "deregistration", func() bool { return registry.Len() == 0 })
	if err := hub.SendToHost("h1", transport.StopQuery{QueryID: 9}); err == nil {
		t.Error("dispatch to a departed host should fail")
	}
}

func TestHubRejectsBadControlHandshake(t *testing.T) {
	hub, _, registry := newTestHub(t)
	c := dialT(t, hub.ControlAddr())
	// Wrong first message: connection is dropped, nothing registered.
	if err := c.Send(transport.Ping{Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err == nil {
		t.Error("hub should close the connection")
	}
	if registry.Len() != 0 {
		t.Error("bad handshake registered a host")
	}
}

func TestHubReplacesDuplicateHostConnection(t *testing.T) {
	hub, _, registry := newTestHub(t)
	old := dialT(t, hub.ControlAddr())
	if err := old.Send(transport.RegisterHost{HostID: "h1", Service: "S"}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "first registration", func() bool { return registry.Len() == 1 })

	replacement := dialT(t, hub.ControlAddr())
	if err := replacement.Send(transport.RegisterHost{HostID: "h1", Service: "S"}); err != nil {
		t.Fatal(err)
	}
	// The old connection is closed by the hub; the replacement works.
	if _, err := old.Recv(); err == nil {
		t.Error("old connection should be closed")
	}
	waitCond(t, "replacement dispatchable", func() bool {
		return hub.SendToHost("h1", transport.Ping{Nonce: 1}) == nil
	})
	msg, err := replacement.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(transport.Ping); !ok {
		t.Fatalf("replacement got %s", transport.Name(msg))
	}
	// A host must still be registered (the replacement's deferred cleanup
	// must not have deregistered it).
	if registry.Len() != 1 {
		t.Errorf("registry len = %d", registry.Len())
	}
}

func TestHubDataPath(t *testing.T) {
	hub, srv, registry := newTestHub(t)
	_ = registry.Register(cluster.HostInfo{Name: "h1", Service: "BidServers"})

	// Install a query directly (dispatch goes nowhere, that's fine).
	var got []transport.ResultWindow
	done := make(chan struct{})
	info, err := srv.Submit(`select count(*) from bid window 1s duration 1h`, Callbacks{
		Window: func(rw transport.ResultWindow) { got = append(got, rw) },
		Done:   func(transport.QueryDone) { close(done) },
	})
	if err != nil {
		t.Fatal(err)
	}

	data := dialT(t, hub.DataAddr())
	if err := data.Send(transport.DataHello{HostID: "h1"}); err != nil {
		t.Fatal(err)
	}
	if err := data.Send(transport.TupleBatch{
		QueryID: info.ID, HostID: "h1", TypeIdx: 0,
		Tuples: []transport.Tuple{{RequestID: 1, TsNanos: time.Now().UnixNano()}},
	}); err != nil {
		t.Fatal(err)
	}
	// Give the data goroutine a moment, then flush via cancel.
	waitCond(t, "tuple ingested", func() bool {
		st, _ := srv.cfg.Engine.Stats(info.ID)
		return st.TuplesIn == 1
	})
	_ = srv.Cancel(info.ID)
	<-done
	if len(got) != 1 || got[0].Rows[0][0].String() != "1" {
		t.Fatalf("windows = %+v", got)
	}
}

func TestHubDataPathRejectsBadHandshake(t *testing.T) {
	hub, _, _ := newTestHub(t)
	data := dialT(t, hub.DataAddr())
	if err := data.Send(transport.Ping{Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := data.Recv(); err == nil {
		t.Error("bad data handshake should close the connection")
	}
}

func TestHubClientSession(t *testing.T) {
	hub, _, registry := newTestHub(t)
	_ = registry.Register(cluster.HostInfo{Name: "h1", Service: "BidServers"})

	client := dialT(t, hub.ClientAddr())
	// Ping works pre-query.
	if err := client.Send(transport.Ping{Nonce: 7}); err != nil {
		t.Fatal(err)
	}
	if msg, err := client.Recv(); err != nil {
		t.Fatal(err)
	} else if p, ok := msg.(transport.Pong); !ok || p.Nonce != 7 {
		t.Fatalf("got %s", transport.Name(msg))
	}
	// Bad query → QueryError with no id.
	if err := client.Send(transport.SubmitQuery{Text: "not a query"}); err != nil {
		t.Fatal(err)
	}
	if msg, _ := client.Recv(); msg == nil {
		t.Fatal("no response")
	} else if qe, ok := msg.(transport.QueryError); !ok || qe.QueryID != 0 {
		t.Fatalf("got %#v", msg)
	}
	// Good query → accepted; cancel → done.
	if err := client.Send(transport.SubmitQuery{Text: `select count(*) from bid window 1s duration 1h`}); err != nil {
		t.Fatal(err)
	}
	msg, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	acc, ok := msg.(transport.QueryAccepted)
	if !ok {
		t.Fatalf("got %s", transport.Name(msg))
	}
	if err := client.Send(transport.CancelQuery{QueryID: acc.QueryID}); err != nil {
		t.Fatal(err)
	}
	// Drain until QueryDone.
	for {
		msg, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := msg.(transport.QueryDone); ok {
			if d.QueryID != acc.QueryID {
				t.Errorf("done for %d", d.QueryID)
			}
			break
		}
	}
	// Cancelling an unknown query → error with the id echoed.
	if err := client.Send(transport.CancelQuery{QueryID: 999}); err != nil {
		t.Fatal(err)
	}
	if msg, _ := client.Recv(); msg == nil {
		t.Fatal("no response")
	} else if qe, ok := msg.(transport.QueryError); !ok || qe.QueryID != 999 {
		t.Fatalf("got %#v", msg)
	}
	// Unexpected message type → error.
	if err := client.Send(transport.DataHello{HostID: "x"}); err != nil {
		t.Fatal(err)
	}
	if msg, _ := client.Recv(); msg == nil {
		t.Fatal("no response")
	} else if _, ok := msg.(transport.QueryError); !ok {
		t.Fatalf("got %#v", msg)
	}
}

func TestHubClientDisconnectCancelsQueries(t *testing.T) {
	hub, srv, registry := newTestHub(t)
	_ = registry.Register(cluster.HostInfo{Name: "h1", Service: "BidServers"})
	client := dialT(t, hub.ClientAddr())
	if err := client.Send(transport.SubmitQuery{Text: `select count(*) from bid window 1s duration 1h`}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "query active", func() bool { return len(srv.Active()) == 1 })
	client.Close()
	waitCond(t, "query cancelled on disconnect", func() bool { return len(srv.Active()) == 0 })
}

func TestDecodedSchemaMismatchClosesEvent(t *testing.T) {
	// event.LoadSchemaFile used by the daemons: duplicate conflicting types
	// must fail (regression guard for catalog skew between daemons).
	path := filepath.Join(t.TempDir(), "dup.schema")
	if err := os.WriteFile(path, []byte("a x:int\na x:string"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := event.LoadSchemaFile(event.NewCatalog(), path); err == nil {
		t.Error("conflicting types should fail")
	}
}

func TestHubListQueries(t *testing.T) {
	hub, _, registry := newTestHub(t)
	_ = registry.Register(cluster.HostInfo{Name: "h1", Service: "BidServers"})
	client := dialT(t, hub.ClientAddr())

	// Empty initially.
	if err := client.Send(transport.ListQueries{}); err != nil {
		t.Fatal(err)
	}
	msg, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ql, ok := msg.(transport.QueryList); !ok || len(ql.Queries) != 0 {
		t.Fatalf("got %#v", msg)
	}

	// Submit, then list from a second client.
	if err := client.Send(transport.SubmitQuery{Text: `select count(*) from bid window 1s duration 1h`}); err != nil {
		t.Fatal(err)
	}
	acc, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	qid := acc.(transport.QueryAccepted).QueryID

	viewer := dialT(t, hub.ClientAddr())
	if err := viewer.Send(transport.ListQueries{}); err != nil {
		t.Fatal(err)
	}
	msg, err = viewer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ql, ok := msg.(transport.QueryList)
	if !ok || len(ql.Queries) != 1 {
		t.Fatalf("got %#v", msg)
	}
	q := ql.Queries[0]
	if q.QueryID != qid || q.Hosts != 1 || q.Text == "" || len(q.Columns) != 1 {
		t.Errorf("summary = %+v", q)
	}
}

func TestHubResyncsQueriesOnReconnect(t *testing.T) {
	hub, srv, registry := newTestHub(t)
	_ = registry.Register(cluster.HostInfo{Name: "h1", Service: "BidServers"})

	// An active query targeting h1 exists before the agent connects
	// (dispatch at submit time failed silently — no control conn yet).
	cb := Callbacks{Window: func(transport.ResultWindow) {}, Done: func(transport.QueryDone) {}}
	info, err := srv.Submit(`select count(*) from bid window 1s duration 1h`, cb)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Cancel(info.ID)

	// The agent now connects: registration must trigger a re-sync and the
	// query object must arrive.
	agent := dialT(t, hub.ControlAddr())
	if err := agent.Send(transport.RegisterHost{HostID: "h1", Service: "BidServers"}); err != nil {
		t.Fatal(err)
	}
	msg, err := agent.Recv()
	if err != nil {
		t.Fatal(err)
	}
	hq, ok := msg.(transport.HostQuery)
	if !ok {
		t.Fatalf("got %s, want HostQuery", transport.Name(msg))
	}
	if hq.QueryID != info.ID || hq.EventType != "bid" {
		t.Errorf("resynced query = %+v", hq)
	}

	// Reconnect (simulating an app restart): the replacement connection
	// gets the query again.
	agent.Close()
	again := dialT(t, hub.ControlAddr())
	if err := again.Send(transport.RegisterHost{HostID: "h1", Service: "BidServers"}); err != nil {
		t.Fatal(err)
	}
	msg, err = again.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if hq, ok := msg.(transport.HostQuery); !ok || hq.QueryID != info.ID {
		t.Fatalf("reconnect got %s", transport.Name(msg))
	}
}

func TestResyncHostOnlyTargetedQueries(t *testing.T) {
	srv, disp, _ := newTestServer(t, 3)
	cb, _ := noopCallbacks()
	// Query sampled to a subset: only those hosts re-sync.
	info, err := srv.Submit(`select count(*) from bid window 1s duration 1h sample hosts 34%`, cb)
	if err != nil {
		t.Fatal(err)
	}
	if info.SampledHosts != 2 {
		t.Fatalf("sampled = %d", info.SampledHosts)
	}
	targeted := map[string]bool{}
	for _, h := range info.Hosts {
		targeted[h] = true
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("h-%02d", i)
		n := srv.ResyncHost(name)
		if targeted[name] && n != 1 {
			t.Errorf("resync %s = %d, want 1", name, n)
		}
		if !targeted[name] && n != 0 {
			t.Errorf("resync %s = %d, want 0 (not targeted)", name, n)
		}
	}
	// After the query ends, nothing re-syncs.
	_ = srv.Cancel(info.ID)
	if n := srv.ResyncHost(info.Hosts[0]); n != 0 {
		t.Errorf("resync after cancel = %d", n)
	}
	_ = disp
}
