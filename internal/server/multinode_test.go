package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/transport"
)

// TestMultinodeSmoke stands up the full distributed deployment in one
// test process: a coordinator-backed hub, two shard nodes (one enrolled
// statically, one joining through the data plane's ShardHello path, the
// way `scrubcentral -shard -join` does), and three host agents whose
// routers have NO fallback sink — every tuple that reaches central
// proves the whole control-plane relay worked: the pinned shard map sent
// ahead of each query, epoch pin on HostQuery, request-id routing, shard
// acks, and manifest folding. `make multinode-smoke` runs it under -race.
func TestMultinodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multinode smoke needs a wall-clock query span")
	}
	hub, _, coordEng, registry := newFabricHub(t)

	// Shard 1: static enrollment, as -shard-addrs would.
	if err := coordEng.AddShard(serveShard(t)); err != nil {
		t.Fatal(err)
	}

	// Shard 2: dynamic join over the hub's data plane, as -join would.
	shardB := coord.NewShardNode(testCatalog())
	lb, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lb.Close() })
	go shardB.Serve(lb)
	joinConn := dialT(t, hub.DataAddr())
	if err := joinConn.Send(transport.DataHello{HostID: "shard:" + lb.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := joinConn.Send(transport.ShardHello{ShardID: lb.Addr(), DataAddr: lb.Addr()}); err != nil {
		t.Fatal(err)
	}
	joinConn.Close() // the join is one message: membership rides the dial-back
	waitCond(t, "both shards enrolled", func() bool {
		return len(coordEng.ShardMap().Addrs) == 2
	})

	// Three host agents: router sink with no fallback — any routing gap
	// (missing map, missing pin) would surface as host drops, not as
	// silently correct single-process delivery.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var agents []*host.Agent
	for i := 0; i < 3; i++ {
		agents = append(agents, startRoutedAgent(t, ctx, hub, fmt.Sprintf("mh-%d", i)))
	}
	waitCond(t, "hosts registered", func() bool { return registry.Len() == 3 })

	client, err := DialClient(hub.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	qs, err := client.Query(`select count(*) from bid window 500ms duration 3s`)
	if err != nil {
		t.Fatal(err)
	}

	// Event generators: one per host, request ids chosen to land on both
	// shards. They run until the span expires.
	var stop atomic.Bool
	genDone := make(chan struct{})
	for i, agent := range agents {
		go func(i int, a *host.Agent) {
			defer func() { genDone <- struct{}{} }()
			schema, _ := testCatalog().Lookup("bid")
			rid := uint64(i * 1_000_000)
			for !stop.Load() {
				rid++
				a.Log(event.NewBuilder(schema).
					SetRequestID(rid).
					SetTime(time.Now()).
					Int("user_id", int64(rid%5)).
					Float("bid_price", 1.5).
					MustBuild())
				time.Sleep(2 * time.Millisecond)
			}
		}(i, agent)
	}

	// Mid-query operational view (the scrubql -stats path): both shards
	// up, each carrying the query, each receiving its half of the id
	// space.
	viewer, err := DialClient(hub.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	waitCond(t, "both shards ingesting", func() bool {
		sl, err := viewer.ShardStatus()
		if err != nil || len(sl.Shards) != 2 {
			return false
		}
		for _, s := range sl.Shards {
			if s.Down || s.ActiveQueries != 1 || s.TuplesIn == 0 {
				return false
			}
		}
		return true
	})

	var total uint64
	nWins := 0
	for rw := range qs.Windows {
		nWins++
		if len(rw.Rows) == 1 {
			n, _ := rw.Rows[0][0].AsInt()
			total += uint64(n)
		}
		if rw.Degraded {
			t.Errorf("window [%d,%d) degraded with all shards up", rw.WindowStart, rw.WindowEnd)
		}
	}
	final, err := qs.Final()
	stop.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	for range agents {
		<-genDone
	}
	if nWins == 0 || final.TuplesIn == 0 {
		t.Fatalf("no results: windows=%d stats=%+v", nWins, final)
	}
	if total != final.TuplesIn {
		t.Errorf("window counts sum %d != TuplesIn %d", total, final.TuplesIn)
	}
	if final.HostDrops != 0 || final.LateDrops != 0 {
		t.Errorf("lossless run dropped tuples: %+v", final)
	}
	if final.DegradedWindows != 0 {
		t.Errorf("degraded windows with a healthy fabric: %+v", final)
	}
}

// newFabricHub assembles a hub and a server driving a shard-fabric
// coordinator with no shards, on ephemeral ports.
func newFabricHub(t *testing.T) (*Hub, *Server, *coord.Coordinator, *cluster.Registry) {
	t.Helper()
	registry := cluster.NewRegistry()
	hub, err := NewHub(registry, "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub.SetLogf(func(string, ...any) {})
	coordEng := coord.NewCoordinator(central.Options{})
	srv, err := New(Config{
		Catalog:      testCatalog(),
		Registry:     registry,
		Engine:       coordEng,
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
	return hub, srv, coordEng, registry
}

// serveShard runs a shard node on an ephemeral listener and returns its
// address.
func serveShard(t *testing.T) string {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go coord.NewShardNode(testCatalog()).Serve(l)
	return l.Addr()
}

// startRoutedAgent starts a host agent whose sink is a router with no
// fallback, its control loop running until ctx ends: any routing gap
// (missing map, missing pin) surfaces as host drops or sink errors, not
// as silently correct single-process delivery.
func startRoutedAgent(t *testing.T, ctx context.Context, hub *Hub, hostID string) *host.Agent {
	t.Helper()
	mconn := dialT(t, hub.DataAddr())
	if err := mconn.Send(transport.DataHello{HostID: hostID}); err != nil {
		t.Fatal(err)
	}
	router := coord.NewRouter(coord.NewManifestClient(mconn), nil)
	t.Cleanup(router.Close)
	agent, err := host.New(host.Config{
		HostID: hostID, Service: "BidServers", DC: "DC1",
		Catalog:       testCatalog(),
		Sink:          router,
		FlushInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	go func() {
		_ = agent.RunControlWith(ctx, hub.ControlAddr(), host.ControlOptions{
			OnShardMap:   router.HandleShardMap,
			OnQueryPin:   router.PinQuery,
			OnQueryUnpin: router.UnpinQuery,
		})
	}()
	return agent
}

// TestResyncSendsPinnedShardMap: a host restarts while a query pinned to
// an older shard-map epoch is running. Registration pushes it no map, so
// each re-synced query's own map must come with it: the restarted host
// ships both queries' tuples, and neither holds the other's back in the
// agent's retransmit buffer.
func TestResyncSendsPinnedShardMap(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a wall-clock query span")
	}
	hub, srv, coordEng, registry := newFabricHub(t)
	if err := coordEng.AddShard(serveShard(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startRoutedAgent(t, ctx, hub, "rh")
	waitCond(t, "host registered", func() bool { return registry.Len() == 1 })

	// Query 1 pins the first epoch; a second shard joins, and query 2
	// pins the epoch after it.
	cb := Callbacks{Window: func(transport.ResultWindow) {}, Done: func(transport.QueryDone) {}}
	q1, err := srv.Submit(`select count(*) from bid window 1s duration 1h`, cb)
	if err != nil {
		t.Fatal(err)
	}
	if err := coordEng.AddShard(serveShard(t)); err != nil {
		t.Fatal(err)
	}
	q2, err := srv.Submit(`select count(*) from bid window 1s duration 1h`, cb)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := coordEng.PinnedMap(q1.ID)
	m2, _ := coordEng.PinnedMap(q2.ID)
	if m1.Epoch == m2.Epoch {
		t.Fatalf("both queries pinned to epoch %d", m1.Epoch)
	}

	// The host restarts: a fresh agent and router under the same name.
	cancel()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	agent := startRoutedAgent(t, ctx2, hub, "rh")
	waitCond(t, "both queries re-synced", func() bool { return len(agent.ActiveQueries()) == 2 })

	schema, _ := testCatalog().Lookup("bid")
	const n = 20
	for rid := uint64(1); rid <= n; rid++ {
		agent.Log(event.NewBuilder(schema).SetRequestID(rid).SetTime(time.Now()).
			Int("user_id", 1).Float("bid_price", 1.5).MustBuild())
	}
	agent.Flush()
	if st := agent.Stats(); st.Shipped != 2*n || st.Kept != 0 || st.SinkErrorTuples != 0 || st.QueueDrops != 0 {
		t.Errorf("restarted host: shipped %d, kept %d, sink-error tuples %d, queue drops %d; want %d, 0, 0, 0",
			st.Shipped, st.Kept, st.SinkErrorTuples, st.QueueDrops, 2*n)
	}
	for _, id := range []uint64{q1.ID, q2.ID} {
		if st, _ := coordEng.Stats(id); st.TuplesIn != n || st.HostDrops != 0 {
			t.Errorf("query %d: shards absorbed %d tuples, %d dropped; want %d, 0", id, st.TuplesIn, st.HostDrops, n)
		}
	}
}
