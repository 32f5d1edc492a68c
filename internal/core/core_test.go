package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/transport"
)

func testCatalog() *event.Catalog {
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "exchange_id", Kind: event.KindInt},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
	))
	cat.MustRegister(event.MustSchema("exclusion",
		event.FieldDef{Name: "line_item_id", Kind: event.KindInt},
		event.FieldDef{Name: "reason", Kind: event.KindString},
	))
	return cat
}

func hostSpecs(n int, service string) []HostSpec {
	out := make([]HostSpec, n)
	for i := range out {
		out[i] = HostSpec{Name: fmt.Sprintf("%s-%d", strings.ToLower(service), i), Service: service, DC: "DC1"}
	}
	return out
}

func fastAgent() host.Config {
	return host.Config{FlushInterval: 5 * time.Millisecond}
}

func newLocal(t *testing.T, hosts []HostSpec) *LocalCluster {
	t.Helper()
	lc, err := NewLocalCluster(LocalConfig{Catalog: testCatalog(), Hosts: hosts, Agent: fastAgent()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

func logBid(t *testing.T, a *host.Agent, req uint64, user int64, price float64, ts time.Time) {
	t.Helper()
	s, _ := a.Catalog().Lookup("bid")
	a.Log(event.NewBuilder(s).
		SetRequestID(req).SetTime(ts).
		Int("user_id", user).Int("exchange_id", 1).Float("bid_price", price).
		MustBuild())
}

func TestLocalClusterValidation(t *testing.T) {
	if _, err := NewLocalCluster(LocalConfig{}); err == nil {
		t.Error("nil catalog should fail")
	}
	if _, err := NewLocalCluster(LocalConfig{Catalog: testCatalog()}); err == nil {
		t.Error("no hosts should fail")
	}
}

func TestLocalEndToEndGroupedCount(t *testing.T) {
	lc := newLocal(t, hostSpecs(3, "BidServers"))
	st, err := lc.Query(`select bid.user_id, count(*) from bid group by bid.user_id window 1s duration 2s @[Service in BidServers]`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Info.NumHosts != 3 || st.Info.SampledHosts != 3 {
		t.Fatalf("info = %+v", st.Info)
	}
	now := time.Now()
	for i, a := range lc.Agents() {
		for j := 0; j < 5; j++ {
			logBid(t, a, uint64(i*100+j), int64(7), 1.0, now)
		}
	}
	// Collect until done (span 2s).
	total := int64(0)
	for rw := range st.Windows {
		for _, row := range rw.Rows {
			if row[0].String() == "7" {
				n, _ := row[1].AsInt()
				total += n
			}
		}
	}
	if total != 15 {
		t.Errorf("total count = %d, want 15", total)
	}
	stats := st.Final()
	if stats.TuplesIn != 15 {
		t.Errorf("final stats = %+v", stats)
	}
	if len(lc.Server.Active()) != 0 {
		t.Error("query still active after span")
	}
	// Agents must be clean too.
	for _, a := range lc.Agents() {
		if len(a.ActiveQueries()) != 0 {
			t.Error("agent still has active queries")
		}
	}
}

func TestLocalTargetSpecLimitsHosts(t *testing.T) {
	hosts := append(hostSpecs(2, "BidServers"), hostSpecs(2, "AdServers")...)
	lc := newLocal(t, hosts)
	st, err := lc.Query(`select count(*) from bid window 1s duration 1s @[Service in AdServers]`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Info.NumHosts != 2 {
		t.Errorf("NumHosts = %d, want 2", st.Info.NumHosts)
	}
	// Log on a BidServer — not targeted, must not count.
	a, _ := lc.Agent("bidservers-0")
	logBid(t, a, 1, 1, 1, time.Now())
	var total int64
	for rw := range st.Windows {
		for _, row := range rw.Rows {
			n, _ := row[0].AsInt()
			total += n
		}
	}
	if total != 0 {
		t.Errorf("untargeted host contributed %d", total)
	}
}

func TestLocalQueryRejection(t *testing.T) {
	lc := newLocal(t, hostSpecs(1, "BidServers"))
	cases := []string{
		`select count(*) from ghost`,
		`select cnt(*) from bid`,
		`select count(*) from bid @[Service in NoSuch]`,
		`totally not a query`,
	}
	for _, src := range cases {
		if _, err := lc.Query(src); err == nil {
			t.Errorf("Query(%q) should fail", src)
		}
	}
}

func TestLocalCancel(t *testing.T) {
	lc := newLocal(t, hostSpecs(1, "BidServers"))
	st, err := lc.Query(`select count(*) from bid window 1s duration 1h`)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := lc.Agent("bidservers-0")
	logBid(t, a, 1, 1, 1, time.Now())
	lc.FlushAgents() // ensure the tuple reaches central before cancel
	if err := lc.Cancel(st.Info.ID); err != nil {
		t.Fatal(err)
	}
	stats := st.Final()
	if stats.TuplesIn != 1 {
		t.Errorf("cancelled stats = %+v", stats)
	}
	if err := lc.Cancel(st.Info.ID); err == nil {
		t.Error("double cancel should fail")
	}
}

func TestLocalHostSampling(t *testing.T) {
	lc := newLocal(t, hostSpecs(10, "BidServers"))
	st, err := lc.Query(`select count(*) from bid window 1s duration 1s sample hosts 30%`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Info.SampledHosts != 3 || st.Info.NumHosts != 10 {
		t.Errorf("sampled %d of %d", st.Info.SampledHosts, st.Info.NumHosts)
	}
	// Only sampled hosts have the query installed.
	installed := 0
	for _, a := range lc.Agents() {
		if len(a.ActiveQueries()) == 1 {
			installed++
		}
	}
	if installed != 3 {
		t.Errorf("query installed on %d hosts, want 3", installed)
	}
	st.Final()
}

func TestLocalScaledCountWithSampling(t *testing.T) {
	lc := newLocal(t, hostSpecs(4, "BidServers"))
	st, err := lc.Query(`select count(*) from bid window 1s duration 2s sample hosts 50%`)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i, a := range lc.Agents() {
		for j := 0; j < 100; j++ {
			logBid(t, a, uint64(i*1000+j), 1, 1, now)
		}
	}
	var got int64
	approx := false
	for rw := range st.Windows {
		approx = approx || rw.Approx
		for _, row := range rw.Rows {
			n, _ := row[0].AsInt()
			got += n
		}
	}
	if !approx {
		t.Error("host-sampled query should be approximate")
	}
	// 2 hosts × 100 events × factor 2 = 400 — exact here because every
	// sampled host contributes identically.
	if got != 400 {
		t.Errorf("scaled count = %d, want 400", got)
	}
}

func TestLocalJoinEndToEnd(t *testing.T) {
	hosts := append(hostSpecs(1, "BidServers"), hostSpecs(1, "AdServers")...)
	lc := newLocal(t, hosts)
	st, err := lc.Query(`select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 1s duration 2s`)
	if err != nil {
		t.Fatal(err)
	}
	bidAgent, _ := lc.Agent("bidservers-0")
	adAgent, _ := lc.Agent("adservers-0")
	exSchema, _ := lc.Catalog.Lookup("exclusion")
	now := time.Now()
	for req := uint64(1); req <= 3; req++ {
		logBid(t, bidAgent, req, 1, 1, now)
		adAgent.Log(event.NewBuilder(exSchema).
			SetRequestID(req).SetTime(now).
			Int("line_item_id", 9).Str("reason", "budget").
			MustBuild())
	}
	counts := map[string]int64{}
	for rw := range st.Windows {
		for _, row := range rw.Rows {
			n, _ := row[1].AsInt()
			counts[row[0].String()] += n
		}
	}
	if counts["budget"] != 3 {
		t.Errorf("join counts = %v", counts)
	}
}

func TestStreamDoneNonBlocking(t *testing.T) {
	lc := newLocal(t, hostSpecs(1, "BidServers"))
	st, err := lc.Query(`select count(*) from bid window 1s duration 1s`)
	if err != nil {
		t.Fatal(err)
	}
	done := func() bool {
		select {
		case <-st.done:
			return true
		default:
			return false
		}
	}
	if done() {
		t.Error("fresh query should not be done")
	}
	st.Final()
	if !done() {
		t.Error("finished query should be done")
	}
}

// --- TCP (NetCluster) integration ---

func TestNetClusterEndToEnd(t *testing.T) {
	nc, err := NewNetCluster(NetConfig{
		Catalog: testCatalog(),
		Hosts:   hostSpecs(3, "BidServers"),
		Agent:   fastAgent(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	client, err := nc.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	qs, err := client.Query(`select bid.user_id, count(*) from bid group by bid.user_id window 1s duration 2s`)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Info.NumHosts != 3 {
		t.Errorf("NumHosts = %d", qs.Info.NumHosts)
	}
	if len(qs.Info.Columns) != 2 {
		t.Errorf("columns = %v", qs.Info.Columns)
	}

	// Query objects propagate asynchronously over TCP; wait until every
	// agent has activated before generating events (events logged before
	// activation are simply not captured — by design).
	waitInstalled := time.Now().Add(5 * time.Second)
	for {
		installed := 0
		for i := 0; i < nc.NumAgents(); i++ {
			if len(nc.Agent(i).ActiveQueries()) > 0 {
				installed++
			}
		}
		if installed == nc.NumAgents() {
			break
		}
		if time.Now().After(waitInstalled) {
			t.Fatalf("query installed on %d/%d agents", installed, nc.NumAgents())
		}
		time.Sleep(2 * time.Millisecond)
	}

	now := time.Now()
	schema, _ := nc.Catalog.Lookup("bid")
	for i := 0; i < nc.NumAgents(); i++ {
		a := nc.Agent(i)
		for j := 0; j < 10; j++ {
			a.Log(event.NewBuilder(schema).
				SetRequestID(uint64(i*100+j)).SetTime(now).
				Int("user_id", 42).Int("exchange_id", 1).Float("bid_price", 1).
				MustBuild())
		}
	}
	var total int64
	for rw := range qs.Windows {
		for _, row := range rw.Rows {
			if row[0].String() == "42" {
				n, _ := row[1].AsInt()
				total += n
			}
		}
	}
	if total != 30 {
		t.Errorf("tcp total = %d, want 30", total)
	}
	stats, err := qs.Final()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TuplesIn != 30 {
		t.Errorf("final = %+v", stats)
	}
}

func TestNetClusterQueryRejected(t *testing.T) {
	nc, err := NewNetCluster(NetConfig{
		Catalog: testCatalog(),
		Hosts:   hostSpecs(1, "BidServers"),
		Agent:   fastAgent(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	client, err := nc.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Query(`select wat(*) from bid`); err == nil {
		t.Error("bad query should be rejected over TCP")
	}
	// Client is reusable after a rejection.
	qs, err := client.Query(`select count(*) from bid window 1s duration 1s`)
	if err != nil {
		t.Fatal(err)
	}
	for range qs.Windows {
	}
	if _, err := qs.Final(); err != nil {
		t.Fatal(err)
	}
}

func TestNetClusterCancel(t *testing.T) {
	nc, err := NewNetCluster(NetConfig{
		Catalog: testCatalog(),
		Hosts:   hostSpecs(1, "BidServers"),
		Agent:   fastAgent(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	client, err := nc.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	qs, err := client.Query(`select count(*) from bid window 1s duration 1h`)
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Cancel(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	donech := make(chan struct{})
	go func() {
		for range qs.Windows {
		}
		close(donech)
	}()
	select {
	case <-donech:
	case <-deadline:
		t.Fatal("cancel did not end the stream")
	}
}

// TestStreamReaderPolicy holds a Stream to the egress policy: a reader
// that starts after the query ended, within clientLag, gets every window
// the stats count; a reader that never reads is cut once a window waited
// clientLag for it, which cancels its query, and Final returns.
func TestStreamReaderPolicy(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	start := func(t *testing.T, secs int) (*LocalCluster, *Stream) {
		agent := fastAgent()
		agent.Clock = func() time.Time { return epoch }
		lc, err := NewLocalCluster(LocalConfig{Catalog: testCatalog(), Hosts: hostSpecs(1, "BidServers"), Agent: agent})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lc.Close)
		st, err := lc.Query(`select count(*) from bid window 1s duration 1h`)
		if err != nil {
			t.Fatal(err)
		}
		a := lc.Agents()[0]
		for sec := 0; sec < secs; sec++ {
			logBid(t, a, uint64(sec+1), 1, 1, epoch.Add(time.Duration(sec)*time.Second))
		}
		lc.FlushAgents()
		lc.FlushAgents()
		return lc, st
	}

	t.Run("late reader", func(t *testing.T) {
		const secs = 1100 // windows: more than a channel buffer of 1 024 held
		lc, st := start(t, secs)
		if err := lc.Cancel(st.Info.ID); err != nil {
			t.Fatal(err)
		}
		stats := st.Final()
		time.Sleep(time.Second) // within clientLag (2 s)
		var got uint64
		for range st.Windows {
			got++
		}
		if stats.Windows < secs || got != stats.Windows || st.Cut() {
			// Say where a lost chunk went: the agent's counters and the
			// query's, a missing BatchSize of windows read against both.
			as := lc.Agents()[0].Stats()
			t.Errorf("received %d windows, stats count %d (want ≥ %d, all received), cut = %v; "+
				"query TuplesIn %d HostDrops %d LateDrops %d; agent Matched %d Shipped %d QueueDrops %d Kept %d",
				got, stats.Windows, secs, st.Cut(), stats.TuplesIn, stats.HostDrops, stats.LateDrops,
				as.Matched, as.Shipped, as.QueueDrops, as.Kept)
		}
	})

	t.Run("stalled reader", func(t *testing.T) {
		lc, st := start(t, 10)
		began := time.Now()
		final := make(chan transport.QueryStats)
		go func() { final <- st.Final() }()
		var stats transport.QueryStats
		select {
		case stats = <-final:
		case <-time.After(5 * time.Second):
			t.Fatal("Final did not return: the stalled reader was not cut")
		}
		waited := time.Since(began)
		if !st.Cut() || stats.Windows == 0 || waited < 2*time.Second {
			t.Errorf("after %v: cut = %v with %d windows emitted; want a cut, after a window waited 2 s",
				waited, st.Cut(), stats.Windows)
		}
		if active := lc.Server.Active(); len(active) != 0 {
			t.Errorf("queries %v still run after the cut", active)
		}
		if _, open := <-st.Windows; open {
			t.Error("Windows is still open after the cut")
		}
	})
}

// TestStreamDeliversCancelBurst: one event opens 10 800 windows of a
// `window 3h slide 1s` query, and the cancel's flush emits all of them at
// once. A reader that starts as soon as Cancel returns receives every
// window the query's stats count.
func TestStreamDeliversCancelBurst(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	agent := fastAgent()
	agent.Clock = func() time.Time { return epoch }
	lc, err := NewLocalCluster(LocalConfig{Catalog: testCatalog(), Hosts: hostSpecs(1, "BidServers"), Agent: agent})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	st, err := lc.Query(`select count(*) from bid window 3h slide 1s duration 1h`)
	if err != nil {
		t.Fatal(err)
	}
	logBid(t, lc.Agents()[0], 1, 1, 1, epoch)
	lc.FlushAgents()
	lc.FlushAgents()
	if err := lc.Cancel(st.Info.ID); err != nil {
		t.Fatal(err)
	}
	var got uint64
	for range st.Windows {
		got++
	}
	if stats := st.Final(); got != 3*3600 || stats.Windows != got {
		t.Errorf("the reader received %d windows, the query's stats count %d; want %d", got, stats.Windows, 3*3600)
	}
}

// TestInOrderHostLosesNothingLate: an agent that logs in time order loses
// no tuple to central's late counter. One agent on a fixed clock flushes
// every 20 µs into a queue that drops nothing while 200 000 events 5 ms
// apart cross 1 000 one-second windows; the query counts every tuple in
// and none late.
func TestInOrderHostLosesNothingLate(t *testing.T) {
	const n = 200_000
	epoch := time.Unix(1_700_000_000, 0)
	agent := host.Config{FlushInterval: 20 * time.Microsecond, QueueSize: 1 << 22,
		Clock: func() time.Time { return epoch }}
	lc, err := NewLocalCluster(LocalConfig{Catalog: testCatalog(), Hosts: hostSpecs(1, "BidServers"), Agent: agent})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	st, err := lc.Query(`select count(*) from bid window 1s duration 1h`)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range st.Windows {
		}
	}()
	a := lc.Agents()[0]
	for i := range n {
		logBid(t, a, uint64(i+1), 1, 1, epoch.Add(time.Duration(i)*5*time.Millisecond))
	}
	lc.FlushAgents()
	lc.FlushAgents()
	if err := lc.Cancel(st.Info.ID); err != nil {
		t.Fatal(err)
	}
	stats := st.Final()
	as := a.Stats()
	if stats.LateDrops != 0 || as.Shipped != n {
		t.Fatalf("query TuplesIn %d LateDrops %d; agent Shipped %d QueueDrops %d of %d",
			stats.TuplesIn, stats.LateDrops, as.Shipped, as.QueueDrops, n)
	}
}
