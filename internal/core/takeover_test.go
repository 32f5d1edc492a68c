package core

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/server"
	"scrub/internal/transport"
)

// haFleet is a replicating leader over two loopback shards, its standbys
// (rank i is standbys[i]) and one host agent whose router ships bid
// events to the shards until the test ends.
type haFleet struct {
	cat      *event.Catalog
	leader   *server.Node
	coord    *coord.Coordinator
	standbys []*coord.Standby
	agent    *host.Agent
}

func newHAFleet(t *testing.T, standbys int, timeout time.Duration) *haFleet {
	t.Helper()
	f := &haFleet{cat: testCatalog(), coord: coord.NewCoordinator(central.Options{})}
	for i := 0; i < 2; i++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go coord.NewShardNode(f.cat).Serve(l)
		if err := f.coord.AddShard(l.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	// Heartbeats well inside the standbys' timeout.
	f.coord.StartReplication(coord.ReplicationConfig{Term: 1, Heartbeat: timeout / 8})
	for rank := 0; rank < standbys; rank++ {
		sb := coord.NewStandby(coord.StandbyOptions{Catalog: f.cat, FailoverTimeout: timeout, Rank: rank})
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go sb.Serve(l)
		if err := f.coord.AddStandby(l.Addr()); err != nil {
			t.Fatal(err)
		}
		f.standbys = append(f.standbys, sb)
	}
	var err error
	f.leader, err = server.Listen(server.Addrs{Client: "127.0.0.1:0", Control: "127.0.0.1:0", Data: "127.0.0.1:0"},
		server.Config{Catalog: f.cat, Engine: f.coord, TickInterval: 20 * time.Millisecond}, nil, func(string, ...any) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The server outlives the kill; closing it last stops nothing a
	// promoted leader runs: its hub and coordinator are gone.
	t.Cleanup(f.leader.Server.Close)
	t.Cleanup(f.coord.Close)
	t.Cleanup(f.leader.Hub.Close)
	f.agent = f.startAgent(t, "h1")
	waitFor(t, "h1 registered", func() bool { return f.leader.Registry.Len() == 1 })
	return f
}

// startAgent starts a host agent whose sink is a router with no fallback,
// reporting manifests on the leader's data address, dialled again after a
// failure as scrubd does; its control loop redials the leader's control
// address. Both addresses outlive the leader: a takeover binds them.
func (f *haFleet) startAgent(t *testing.T, name string) *host.Agent {
	t.Helper()
	addrs := f.leader.Addrs()
	var mu sync.Mutex
	var report coord.ManifestFunc
	router := coord.NewRouter(func(m transport.BatchManifest) error {
		mu.Lock()
		defer mu.Unlock()
		if report == nil {
			conn, err := transport.Dial(addrs.Data, time.Second)
			if err != nil {
				return err
			}
			if err := conn.Send(transport.DataHello{HostID: name}); err != nil {
				conn.Close()
				return err
			}
			report = coord.NewManifestClient(conn)
		}
		err := report(m)
		if err != nil {
			report = nil // the client closed the connection
		}
		return err
	}, nil)
	t.Cleanup(router.Close)
	a, err := host.New(host.Config{HostID: name, Service: "BidServers", DC: "DC1", Catalog: f.cat,
		Sink: router, FlushInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{}, 2)
	t.Cleanup(func() { cancel(); <-stopped; <-stopped })
	go func() {
		defer func() { stopped <- struct{}{} }()
		_ = a.RunControlWith(ctx, addrs.Control, host.ControlOptions{
			BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
			OnShardMap: router.HandleShardMap, OnQueryPin: router.PinQuery, OnQueryUnpin: router.UnpinQuery,
		})
	}()
	go func() {
		defer func() { stopped <- struct{}{} }()
		schema, _ := f.cat.Lookup("bid")
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for rid := uint64(1); ; rid++ {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			a.Log(event.NewBuilder(schema).SetRequestID(rid).SetTime(time.Now()).
				Int("user_id", 1).Int("exchange_id", 1).Float("bid_price", 1.5).MustBuild())
		}
	}()
	return a
}

// submit starts a count over bid on n and returns its id.
func submit(t *testing.T, n *server.Node, window func(transport.ResultWindow)) uint64 {
	t.Helper()
	info, err := n.Server.Submit(`select count(*) from bid window 200ms duration 1m`,
		server.Callbacks{Window: window, Done: func(transport.QueryDone) {}})
	if err != nil {
		t.Fatal(err)
	}
	return info.ID
}

// kill stops the leader as kill -9 would: no query is drained or stopped.
func (f *haFleet) kill() {
	f.coord.Close()
	f.leader.Hub.Close()
}

// failover waits out standby rank's failover timeout and takes over.
func (f *haFleet) failover(t *testing.T, rank int, emit central.EmitFunc) *server.Node {
	t.Helper()
	if !f.standbys[rank].AwaitFailover(make(chan struct{})) {
		t.Fatal("AwaitFailover returned without a failover")
	}
	n, _, err := Takeover(f.standbys[rank], f.cat, f.leader.Addrs(), nil, emit)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTakeoverAdoptsLeadersQuery: the leader dies under a running query
// and its standby takes over on its addresses. The query's windows keep
// coming, Degraded (the manifests in flight at the kill are lost), the
// rebound client plane lists it, and a Cancel there stops it on the host.
func TestTakeoverAdoptsLeadersQuery(t *testing.T) {
	f := newHAFleet(t, 1, 150*time.Millisecond)
	onLeader := make(chan struct{}, 1)
	qid := submit(t, f.leader, func(transport.ResultWindow) {
		select {
		case onLeader <- struct{}{}:
		default:
		}
	})
	select {
	case <-onLeader:
	case <-time.After(3 * time.Second):
		t.Fatal("no window on the leader")
	}
	f.kill()

	var mu sync.Mutex
	var adopted []transport.ResultWindow
	n := f.failover(t, 0, func(rw transport.ResultWindow) {
		mu.Lock()
		defer mu.Unlock()
		adopted = append(adopted, rw)
	})
	waitFor(t, "2 adopted windows", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(adopted) >= 2
	})
	mu.Lock()
	for _, rw := range adopted {
		if rw.QueryID != qid || !rw.Degraded {
			t.Errorf("adopted window of query %d, degraded=%v; want query %d, degraded", rw.QueryID, rw.Degraded, qid)
		}
	}
	mu.Unlock()

	client, err := server.DialClient(f.leader.Addrs().Client)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	l, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 1 || l[0].QueryID != qid {
		t.Fatalf("the rebound client plane lists %+v, want query %d", l, qid)
	}

	waitFor(t, "h1 to re-register", func() bool { return n.Registry.Len() == 1 })
	conn, err := transport.Dial(f.leader.Addrs().Client, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(transport.CancelQuery{QueryID: qid}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "h1 to stop the adopted query", func() bool { return !slices.Contains(f.agent.ActiveQueries(), qid) })
}

// TestPromotedLeaderKeepsOtherStandbys: of two standbys, rank 0 takes over
// and starts a query. Rank 1 held the dead leader's term, as rank 0 did;
// had it promoted too, it would have taken the same term, which the
// shards admit, and drained rank 0's query from them as an orphan. Rank 0
// replicates to it instead: rank 1 stays a standby for ten of its
// (rank-staggered) timeouts and holds rank 0's term and query.
func TestPromotedLeaderKeepsOtherStandbys(t *testing.T) {
	const timeout = 150 * time.Millisecond
	f := newHAFleet(t, 2, timeout)
	q1 := submit(t, f.leader, func(transport.ResultWindow) {})
	f.kill()

	n := f.failover(t, 0, func(transport.ResultWindow) {})
	waitFor(t, "h1 to re-register", func() bool { return n.Registry.Len() == 1 })
	q2 := submit(t, n, func(transport.ResultWindow) {})

	stop := make(chan struct{})
	time.AfterFunc(10*2*timeout, func() { close(stop) })
	if f.standbys[1].AwaitFailover(stop) {
		t.Fatal("rank 1 failed over under the promoted rank 0")
	}
	term, qs := f.standbys[1].Snapshot()
	if term != 2 || !slices.Equal(qs, []uint64{q1, q2}) {
		t.Fatalf("rank 1 holds term %d, queries %v; want term 2, [%d %d]", term, qs, q1, q2)
	}
}
