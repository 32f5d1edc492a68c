package coord

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/transport"
)

// liveShard is a shard process on a real listener; kill closes the
// listener and every accepted connection, as the process dying would.
type liveShard struct {
	l     *transport.Listener
	mu    sync.Mutex
	conns []*transport.Conn
}

func serveLiveShard(t *testing.T, addr string) *liveShard {
	t.Helper()
	l, err := transport.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &liveShard{l: l}
	node := NewShardNode(testCatalog())
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			go node.ServeConn(c)
		}
	}()
	return s
}

func (s *liveShard) kill() {
	s.l.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

// TestRouterRedialsRestartedShard: a shard process dies, the coordinator
// sweeps it and enrolls a fresh process at the same address under a new
// epoch. The router must dial the fresh process for queries pinned to
// the new epoch instead of reusing the client on the dead one, whether
// that client latched down before the new map arrived (a batch reached
// the dead process) or only after (the first batch under the new map
// fails on the dead connection). A query pinned to the old epoch must
// count the tuples the fresh process does not run as drops.
func TestRouterRedialsRestartedShard(t *testing.T) {
	cases := []struct {
		name string
		// sendWhileDead routes one of query 1's batches to the dead
		// process, latching the router's client before the new map.
		sendWhileDead bool
		q1Drops       uint64
		q2In, q2Drops uint64
	}{
		{name: "latched before the map", sendWhileDead: true, q1Drops: 2, q2In: 4},
		{name: "latched after the map", q1Drops: 1, q2In: 3, q2Drops: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first := serveLiveShard(t, "127.0.0.1:0")
			addr := first.l.Addr()
			vc := &vclock{}
			c := NewCoordinator(Options{Clock: vc.now, LeaseTTL: time.Hour})
			defer c.Close()
			r := NewRouter(func(m transport.BatchManifest) error { c.HandleManifest(m); return nil }, nil)
			defer r.Close()
			c.OnShardMap(r.HandleShardMap)
			if err := c.AddShard(addr); err != nil {
				t.Fatal(err)
			}
			tt := &testTopo{coord: c, router: r}
			col1, col2 := &collector{}, &collector{}
			tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, col1)
			vc.nanos = sec
			tt.send(t, 1, 0, sec)

			// The process dies; the coordinator's client latches down on
			// its next RPC, and a tick sweeps it.
			first.kill()
			if tc.sendWhileDead {
				tt.send(t, 1, 1, sec)
			}
			for i := 0; i < 2 && len(c.ShardMap().Addrs) != 0; i++ {
				vc.nanos += 20 * sec
				c.Tick(vc.nanos)
			}
			if m := c.ShardMap(); len(m.Addrs) != 0 {
				t.Fatalf("dead shard not swept: %+v", m)
			}

			// A fresh process comes up at the same address and enrolls.
			second := serveLiveShard(t, addr)
			defer second.kill()
			if err := c.AddShard(addr); err != nil {
				t.Fatal(err)
			}
			tt.startQuery(t, 2, `select count(*) from ev window 10s`, time.Second, col2)
			for i := uint64(0); i < 4; i++ {
				tt.send(t, 2, i, vc.nanos)
			}

			// Query 1 still routes to the address; the fresh process does
			// not run it, so its tuples are drops, not silence.
			tt.send(t, 1, 2, sec)
			st1, ok := c.StopQuery(1)
			if !ok {
				t.Fatal("StopQuery(1) missed")
			}
			if st1.HostDrops != tc.q1Drops {
				t.Errorf("query 1 host drops = %d, want %d", st1.HostDrops, tc.q1Drops)
			}
			st2, ok := c.StopQuery(2)
			if !ok {
				t.Fatal("StopQuery(2) missed")
			}
			if st2.TuplesIn != tc.q2In || st2.HostDrops != tc.q2Drops {
				t.Errorf("query 2: fresh shard absorbed %d tuples, %d dropped; want %d and %d",
					st2.TuplesIn, st2.HostDrops, tc.q2In, tc.q2Drops)
			}
		})
	}
}

// TestRouterKeepsBatchAheadOfItsMap: a query's pin can reach the host
// before the shard map it names. Nothing is applied then, so the router
// reports the batch undelivered and the agent keeps it until the map
// arrives. A query with no pin and no fallback stays a plain error: it is
// a misconfiguration no later message repairs. So does a pin whose map is
// missing once a newer map arrived: that push is not on its way, and a
// kept batch would stall the agent's ordered retransmit buffer.
func TestRouterKeepsBatchAheadOfItsMap(t *testing.T) {
	r := NewRouter(func(transport.BatchManifest) error { return nil }, nil)
	b := transport.TupleBatch{QueryID: 9, HostID: "h", Tuples: []transport.Tuple{{RequestID: 1}}}
	if err := r.SendBatch(b); err == nil || errors.Is(err, host.ErrUndelivered) {
		t.Errorf("unpinned batch without fallback: err = %v, want a plain error", err)
	}
	r.PinQuery(9, 7)
	if err := r.SendBatch(b); !errors.Is(err, host.ErrUndelivered) {
		t.Errorf("batch pinned ahead of its map: err = %v, want host.ErrUndelivered", err)
	}
	r.SetMap(8, []string{"127.0.0.1:1"})
	if err := r.SendBatch(b); err == nil || errors.Is(err, host.ErrUndelivered) {
		t.Errorf("batch pinned below the newest map, its own missing: err = %v, want a plain error", err)
	}
}

// TestAgentRedeliversBatchAheadOfItsMap drives the same race through a
// host agent: its tuples wait in the agent while the map is missing and
// ship once it arrives, none of them lost.
func TestAgentRedeliversBatchAheadOfItsMap(t *testing.T) {
	vc := &vclock{nanos: sec}
	tt := newTestTopo(t, 2, Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer tt.close()
	col := &collector{}
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, col)
	pinned, _ := tt.coord.PinnedMap(1)
	epoch := pinned.Epoch

	// The agent's own router has its shard connections and the pin, but
	// not yet the map.
	r := NewRouter(func(m transport.BatchManifest) error { tt.coord.HandleManifest(m); return nil }, nil)
	defer r.Close()
	for i, s := range tt.shards {
		rc, rs := transport.Pipe()
		go s.node.ServeConn(rs)
		r.AddShardConn(tt.coord.ShardMap().Addrs[i], rc)
	}
	r.PinQuery(1, epoch)
	a, err := host.New(host.Config{HostID: "h2", Service: "svc", Catalog: testCatalog(), Sink: r, Clock: vc.now})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "ev", ShardEpoch: epoch}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		a.Log(event.NewBuilder(testSchema).SetRequestID(i).SetTimeNanos(sec).Float("v", 1).MustBuild())
	}
	a.Flush()
	if st := a.Stats(); st.Kept != 3 || st.Shipped != 0 {
		t.Fatalf("before the map: kept %d, shipped %d; want 3 kept, 0 shipped", st.Kept, st.Shipped)
	}

	r.HandleShardMap(tt.coord.ShardMap())
	a.Flush()
	st := a.Stats()
	if st.Shipped != 3 || st.SinkErrorTuples != 0 || st.Kept != 0 {
		t.Errorf("after the map: shipped %d, sink-error tuples %d, kept %d; want 3, 0, 0", st.Shipped, st.SinkErrorTuples, st.Kept)
	}
	if qs, _ := tt.coord.Stats(1); qs.TuplesIn != 3 {
		t.Errorf("shards absorbed %d tuples, want 3", qs.TuplesIn)
	}
}

// TestLostManifestRouteDropsChargedOnce: a tuple the router could not
// apply is its batch's routing drop, and a manifest that fails to reach
// the coordinator is lost with it. SendBatch returns a plain error, so
// the agent charges that batch to its sink-error tuples; the next
// manifest reports its own batch's routing drop only, so the coordinator
// does not count the lost batch a second time.
func TestLostManifestRouteDropsChargedOnce(t *testing.T) {
	vc := &vclock{nanos: sec}
	tt := newTestTopo(t, 2, Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer tt.close()
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, &collector{})
	pinned, _ := tt.coord.PinnedMap(1)

	var lost atomic.Bool
	tt.router.manifest = func(m transport.BatchManifest) error {
		if m.RawTuples > 0 && lost.CompareAndSwap(false, true) {
			return errors.New("manifest link down")
		}
		tt.coord.HandleManifest(m)
		return nil
	}
	a, err := host.New(host.Config{HostID: "h2", Service: "svc", Catalog: testCatalog(), Sink: tt.router, Clock: vc.now})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "ev", ShardEpoch: pinned.Epoch}); err != nil {
		t.Fatal(err)
	}
	tt.shards[1].kill()
	// Odd request ids belong to the dead shard: each batch is one routing
	// drop, and the first batch's manifest is lost.
	for _, rid := range []uint64{1, 3} {
		a.Log(event.NewBuilder(testSchema).SetRequestID(rid).SetTimeNanos(sec).Float("v", 1).MustBuild())
		a.Flush()
	}
	if st := a.Stats(); st.Shipped != 1 || st.SinkErrorTuples != 1 || st.Kept != 0 {
		t.Fatalf("agent: shipped %d, sink-error tuples %d, kept %d; want 1, 1, 0", st.Shipped, st.SinkErrorTuples, st.Kept)
	}
	st, ok := tt.coord.StopQuery(1)
	if !ok {
		t.Fatal("StopQuery missed")
	}
	if st.HostDrops != 1 {
		t.Errorf("host drops = %d, want 1: the lost manifest's batch is the agent's sink-error tuple, charged nowhere else", st.HostDrops)
	}
}

// TestLostManifestLateDropChargedOnce: a tuple a shard drops as late is
// its batch's LateDelta, and a manifest that fails to reach the
// coordinator is lost with it. The agent charges that batch to its
// sink-error tuples; no collect or stop reports the shard's count again,
// so the coordinator does not count the tuple a second time as late.
func TestLostManifestLateDropChargedOnce(t *testing.T) {
	vc := &vclock{nanos: sec}
	tt := newTestTopo(t, 2, Options{Clock: vc.now, LeaseTTL: time.Hour})
	defer tt.close()
	tt.startQuery(t, 1, `select count(*) from ev window 10s`, time.Second, &collector{})
	pinned, _ := tt.coord.PinnedMap(1)

	var sent atomic.Int32
	tt.router.manifest = func(m transport.BatchManifest) error {
		if m.RawTuples > 0 && sent.Add(1) == 3 {
			return errors.New("manifest link down")
		}
		tt.coord.HandleManifest(m)
		return nil
	}
	a, err := host.New(host.Config{HostID: "h2", Service: "svc", Catalog: testCatalog(), Sink: tt.router, Clock: vc.now})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "ev", ShardEpoch: pinned.Epoch}); err != nil {
		t.Fatal(err)
	}
	// Even request ids: all three land on shard 0. The 12 s batch closes
	// [0,10s); the 2 s one is late there, and its manifest is lost.
	for _, e := range []struct{ rid, ts uint64 }{{0, 1}, {2, 12}, {4, 2}} {
		a.Log(event.NewBuilder(testSchema).SetRequestID(e.rid).SetTimeNanos(int64(e.ts)*sec).Float("v", 1).MustBuild())
		a.Flush()
	}
	if st := a.Stats(); st.Shipped != 2 || st.SinkErrorTuples != 1 || st.Kept != 0 {
		t.Fatalf("agent: shipped %d, sink-error tuples %d, kept %d; want 2, 1, 0", st.Shipped, st.SinkErrorTuples, st.Kept)
	}
	st, ok := tt.coord.StopQuery(1)
	if !ok {
		t.Fatal("StopQuery missed")
	}
	if st.LateDrops != 0 {
		t.Errorf("late drops = %d, want 0: the lost manifest's batch is the agent's sink-error tuple, charged nowhere else", st.LateDrops)
	}
}
