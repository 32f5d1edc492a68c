package server

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"scrub/internal/host"
	"scrub/internal/transport"
)

// markerQuery is a query id no test submits: a StopQuery for it is a no-op
// on the agent, and its OnQueryUnpin tells the test that every control
// message sent ahead of it has been applied.
const markerQuery = 1 << 40

// TestAdoptedQueryRunsOnLeadersHosts: a promoted server adopts query 1
// (`sample hosts 25%`), which the dead leader ran on h6 and h7 of h1…h8.
// The fleet re-registers one host at a time in name order. The query must
// stay on the hosts that run it — no host the leader did not sample may
// start shipping into a window central scales by N/n — and Cancel must
// stop it on both.
func TestAdoptedQueryRunsOnLeadersHosts(t *testing.T) {
	hub, srv, registry := newTestHub(t)
	const text = `select count(*) from bid window 1s duration 1h sample hosts 25%`
	start := time.Now()
	end := start.Add(time.Hour)
	info := QueryInfo{ID: 1, Start: start, End: end, NumHosts: 8, SampledHosts: 2}
	if _, err := srv.Adopt(text, info, Callbacks{Done: func(transport.QueryDone) {}}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	names := []string{"h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8"}
	agents := map[string]*host.Agent{}
	applied := map[string]chan struct{}{}
	for _, name := range names {
		a, err := host.New(host.Config{
			HostID: name, Service: "BidServers", DC: "DC1",
			Catalog: testCatalog(),
			Sink:    host.SinkFunc(func(transport.TupleBatch) error { return nil }),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		agents[name] = a
		applied[name] = make(chan struct{}, 1)
	}
	// The leader sampled h6 and h7; they run the query across the takeover.
	for _, name := range []string{"h6", "h7"} {
		if err := agents[name].Start(transport.HostQuery{
			QueryID: 1, EventType: "bid", SampleEvents: 1,
			StartNanos: start.UnixNano(), EndNanos: end.UnixNano(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range names {
		marker := applied[name]
		go func(a *host.Agent) {
			_ = a.RunControlWith(ctx, hub.ControlAddr(), host.ControlOptions{
				OnQueryUnpin: func(id uint64) {
					if id == markerQuery {
						marker <- struct{}{}
					}
				},
			})
		}(agents[name])
		waitCond(t, name+" registered", func() bool { return registry.Len() == i+1 })
	}

	// sync waits until every agent has applied what it was sent so far.
	sync := func() {
		t.Helper()
		for _, name := range names {
			if err := hub.SendToHost(name, transport.StopQuery{QueryID: markerQuery}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-applied[name]:
			case <-time.After(3 * time.Second):
				t.Fatalf("%s did not apply its control messages", name)
			}
		}
	}
	running := func() []string {
		var out []string
		for _, name := range names {
			if slices.Contains(agents[name].ActiveQueries(), 1) {
				out = append(out, name)
			}
		}
		return out
	}

	sync()
	if got := running(); fmt.Sprint(got) != "[h6 h7]" {
		t.Errorf("after the fleet re-registered, query 1 runs on %v, want [h6 h7]", got)
	}
	if err := srv.Cancel(1); err != nil {
		t.Fatal(err)
	}
	sync()
	if got := running(); len(got) != 0 {
		t.Errorf("after Cancel, query 1 still runs on %v", got)
	}
}

// TestAdoptedQueryListRace: List runs while hosts register for an adopted
// query. Run it under -race: registration must not write what List reads
// without the server's lock.
func TestAdoptedQueryListRace(t *testing.T) {
	srv, _, _ := newTestServer(t, 8)
	start := time.Now()
	info := QueryInfo{ID: 1, Start: start, End: start.Add(time.Hour), NumHosts: 8, SampledHosts: 2}
	if _, err := srv.Adopt(`select count(*) from bid window 1s duration 1h sample hosts 25%`, info,
		Callbacks{Done: func(transport.QueryDone) {}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			var running []uint64
			if i == 5 || i == 6 {
				running = []uint64{1}
			}
			srv.ResyncHost(fmt.Sprintf("h-%02d", i), running)
		}
	}()
	for {
		select {
		case <-done:
			// The listing reports the n the engine scales by, whoever has
			// registered since.
			if l := srv.List(); len(l) != 1 || l[0].QueryID != 1 || l[0].Hosts != 2 {
				t.Fatalf("List = %+v, want query 1 on 2 sampled hosts", l)
			}
			return
		default:
			srv.List()
		}
	}
}
