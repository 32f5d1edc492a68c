package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/event"
	"scrub/internal/transport"
)

func testCatalog() *event.Catalog {
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
	))
	return cat
}

// recordingDispatcher captures dispatched messages per host.
type recordingDispatcher struct {
	mu   sync.Mutex
	sent map[string][]transport.Message
	fail map[string]bool
}

func newRecordingDispatcher() *recordingDispatcher {
	return &recordingDispatcher{sent: map[string][]transport.Message{}, fail: map[string]bool{}}
}

func (d *recordingDispatcher) SendToHost(host string, msg transport.Message) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fail[host] {
		return fmt.Errorf("host %s unreachable", host)
	}
	d.sent[host] = append(d.sent[host], msg)
	return nil
}

func (d *recordingDispatcher) messages(host string) []transport.Message {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]transport.Message(nil), d.sent[host]...)
}

func newTestServer(t *testing.T, nHosts int) (*Server, *recordingDispatcher, *central.Engine) {
	t.Helper()
	reg := cluster.NewRegistry()
	for i := 0; i < nHosts; i++ {
		if err := reg.Register(cluster.HostInfo{
			Name: fmt.Sprintf("h-%02d", i), Service: "BidServers", DC: "DC1",
		}); err != nil {
			t.Fatal(err)
		}
	}
	disp := newRecordingDispatcher()
	engine := central.NewEngine()
	srv, err := New(Config{
		Catalog:      testCatalog(),
		Registry:     reg,
		Engine:       engine,
		Dispatcher:   disp,
		TickInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, disp, engine
}

func noopCallbacks() (Callbacks, *sync.WaitGroup) {
	var wg sync.WaitGroup
	wg.Add(1)
	return Callbacks{
		Window: func(transport.ResultWindow) {},
		Done:   func(transport.QueryDone) { wg.Done() },
	}, &wg
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
}

func TestSubmitRequiresCallbacks(t *testing.T) {
	srv, _, _ := newTestServer(t, 1)
	if _, err := srv.Submit(`select count(*) from bid`, Callbacks{}); err == nil {
		t.Error("missing callbacks should fail")
	}
}

func TestSubmitDispatchesQueryObjects(t *testing.T) {
	srv, disp, engine := newTestServer(t, 3)
	cb, _ := noopCallbacks()
	info, err := srv.Submit(`select bid.user_id, count(*) from bid where bid.bid_price > 1.0 group by bid.user_id window 1s duration 1h`, cb)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumHosts != 3 || info.SampledHosts != 3 {
		t.Errorf("info = %+v", info)
	}
	if len(info.Columns) != 2 {
		t.Errorf("columns = %v", info.Columns)
	}
	if !info.End.After(info.Start) {
		t.Error("span not resolved")
	}
	// Every host received exactly one HostQuery carrying the predicate
	// and projection.
	for i := 0; i < 3; i++ {
		msgs := disp.messages(fmt.Sprintf("h-%02d", i))
		if len(msgs) != 1 {
			t.Fatalf("host %d got %d messages", i, len(msgs))
		}
		hq, ok := msgs[0].(transport.HostQuery)
		if !ok {
			t.Fatalf("got %s", transport.Name(msgs[0]))
		}
		if hq.QueryID != info.ID || hq.EventType != "bid" || hq.Pred == nil {
			t.Errorf("host query = %+v", hq)
		}
		if len(hq.Columns) != 1 || hq.Columns[0] != "user_id" {
			t.Errorf("columns = %v", hq.Columns)
		}
		if hq.EndNanos != info.End.UnixNano() {
			t.Error("span not propagated")
		}
	}
	// Central has the query installed.
	if _, ok := engine.Stats(info.ID); !ok {
		t.Errorf("engine does not run query %d", info.ID)
	}
	if got := srv.Active(); len(got) != 1 {
		t.Errorf("server active = %v", got)
	}
}

func TestSubmitRejectsBadQueries(t *testing.T) {
	srv, _, _ := newTestServer(t, 1)
	cb, _ := noopCallbacks()
	cases := []struct{ src, want string }{
		{`select count(* from bid`, "syntax"},
		{`select count(*) from ghost`, "unknown event type"},
		{`select count(*) from bid @[Service in NoSuch]`, "matches no hosts"},
		{`select count(*) from bid start "2001-01-01T00:00:00Z" duration 1s`, "in the past"},
	}
	for _, c := range cases {
		_, err := srv.Submit(c.src, cb)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Submit(%q) err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestCancelStopsEverywhere(t *testing.T) {
	srv, disp, engine := newTestServer(t, 2)
	cb, wg := noopCallbacks()
	info, err := srv.Submit(`select count(*) from bid window 1s duration 1h`, cb)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // Done callback fired exactly once
	// StopQuery reached both hosts.
	for i := 0; i < 2; i++ {
		msgs := disp.messages(fmt.Sprintf("h-%02d", i))
		last := msgs[len(msgs)-1]
		if _, ok := last.(transport.StopQuery); !ok {
			t.Errorf("host %d last message = %s", i, transport.Name(last))
		}
	}
	if _, ok := engine.Stats(info.ID); ok {
		t.Error("engine still has the query")
	}
	if err := srv.Cancel(info.ID); err == nil {
		t.Error("double cancel should fail")
	}
}

func TestSpanExpiryFiresDone(t *testing.T) {
	srv, _, _ := newTestServer(t, 1)
	done := make(chan transport.QueryDone, 1)
	cb := Callbacks{
		Window: func(transport.ResultWindow) {},
		Done:   func(d transport.QueryDone) { done <- d },
	}
	info, err := srv.Submit(`select count(*) from bid window 200ms duration 300ms`, cb)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-done:
		if d.QueryID != info.ID {
			t.Errorf("done for %d, want %d", d.QueryID, info.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("span expiry never fired Done")
	}
	if len(srv.Active()) != 0 {
		t.Error("query still active after expiry")
	}
}

func TestResultsFlowThroughHandleBatch(t *testing.T) {
	srv, _, _ := newTestServer(t, 1)
	var mu sync.Mutex
	var rows [][]string
	cb := Callbacks{
		Window: func(rw transport.ResultWindow) {
			mu.Lock()
			for _, row := range rw.Rows {
				var cells []string
				for _, v := range row {
					cells = append(cells, v.String())
				}
				rows = append(rows, cells)
			}
			mu.Unlock()
		},
		Done: func(transport.QueryDone) {},
	}
	info, err := srv.Submit(`select bid.user_id, count(*) from bid group by bid.user_id window 1s duration 1h`, cb)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	srv.HandleBatch(transport.TupleBatch{
		QueryID: info.ID, HostID: "h-00", TypeIdx: 0,
		Tuples: []transport.Tuple{
			{RequestID: 1, TsNanos: now, Values: []event.Value{event.Int(42)}},
			{RequestID: 2, TsNanos: now, Values: []event.Value{event.Int(42)}},
		},
	})
	if err := srv.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rows) != 1 || rows[0][0] != "42" || rows[0][1] != "2" {
		t.Errorf("rows = %v", rows)
	}
}

func TestDispatchFailureDegradesNotFails(t *testing.T) {
	srv, disp, _ := newTestServer(t, 3)
	disp.mu.Lock()
	disp.fail["h-01"] = true
	disp.mu.Unlock()
	cb, _ := noopCallbacks()
	info, err := srv.Submit(`select count(*) from bid window 1s duration 1h`, cb)
	if err != nil {
		t.Fatalf("unreachable host should not reject the query: %v", err)
	}
	// Reachable hosts still got their query objects.
	if len(disp.messages("h-00")) != 1 || len(disp.messages("h-02")) != 1 {
		t.Error("reachable hosts missing query objects")
	}
	_ = srv.Cancel(info.ID)
}

func TestHostSamplingInstallsOnSubsetOnly(t *testing.T) {
	srv, disp, _ := newTestServer(t, 10)
	cb, _ := noopCallbacks()
	info, err := srv.Submit(`select count(*) from bid window 1s duration 1h sample hosts 20%`, cb)
	if err != nil {
		t.Fatal(err)
	}
	if info.SampledHosts != 2 || len(info.Hosts) != 2 {
		t.Fatalf("sampled = %d (%v)", info.SampledHosts, info.Hosts)
	}
	installed := 0
	for i := 0; i < 10; i++ {
		if len(disp.messages(fmt.Sprintf("h-%02d", i))) > 0 {
			installed++
		}
	}
	if installed != 2 {
		t.Errorf("query objects reached %d hosts, want 2", installed)
	}
	_ = srv.Cancel(info.ID)
}

func TestJoinQuerySendsPerTypeObjects(t *testing.T) {
	srv, disp, _ := newTestServer(t, 1)
	srv.cfg.Catalog.MustRegister(event.MustSchema("click",
		event.FieldDef{Name: "line_item_id", Kind: event.KindInt}))
	cb, _ := noopCallbacks()
	info, err := srv.Submit(`select count(*) from bid, click window 1s duration 1h`, cb)
	if err != nil {
		t.Fatal(err)
	}
	msgs := disp.messages("h-00")
	if len(msgs) != 2 {
		t.Fatalf("join query sent %d objects, want 2", len(msgs))
	}
	types := map[string]uint8{}
	for _, m := range msgs {
		hq := m.(transport.HostQuery)
		types[hq.EventType] = hq.TypeIdx
	}
	if types["bid"] != 0 || types["click"] != 1 {
		t.Errorf("type indices = %v", types)
	}
	_ = srv.Cancel(info.ID)
}

func TestCloseCancelsActiveQueries(t *testing.T) {
	reg := cluster.NewRegistry()
	_ = reg.Register(cluster.HostInfo{Name: "h", Service: "S"})
	disp := newRecordingDispatcher()
	srv, err := New(Config{
		Catalog: testCatalog(), Registry: reg,
		Engine: central.NewEngine(), Dispatcher: disp,
	})
	if err != nil {
		t.Fatal(err)
	}
	cb, wg := noopCallbacks()
	if _, err := srv.Submit(`select count(*) from bid window 1s duration 1h`, cb); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	wg.Wait()
	if len(srv.Active()) != 0 {
		t.Error("Close left active queries")
	}
}
