package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"scrub/internal/central"
	"scrub/internal/chaos"
	"scrub/internal/core"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/transport"
)

// C1 is the chaos soak: a real-TCP cluster under a scripted fault
// schedule — a lossy, reordering link; a full partition with lease expiry
// and degraded windows; an abrupt connection kill whose undelivered
// chunks the agent keeps and redelivers — verifying the failure-domain
// contract end to end. Not a paper table: the paper deployed on a
// production network and never injected faults; this pins the
// reproduction's liveness layer.
const (
	c1Hosts    = 3               // the schedule faults three different hosts
	c1Duration = 6 * time.Second // soak length
	c1Window   = 500 * time.Millisecond
	c1LeaseTTL = 600 * time.Millisecond // stream lease
	c1Seed     = 40917                  // chaos + jitter seed
)

// C1Result summarizes the soak.
type C1Result struct {
	Windows         int    // result windows emitted
	DegradedWindows int    // windows flagged degraded
	EvictionsNamed  bool   // every degraded window named host 1 evicted
	LastClean       bool   // final window emitted after heal was clean
	HostDrops       uint64 // final cumulative host-side drops
	LateDrops       uint64 // tuples arriving after their window closed
	SeveredConns    int    // connections Kill() cut
	EventsLogged    uint64 // events offered by the traffic loop
}

// C1ChaosSoak runs the soak. The schedule, scaled to its duration D:
//
//	0.25D  host c1-0 gets a lossy link (drop 30%, dup 10%, reorder 20%)
//	0.40D  host c1-1 is fully partitioned       → lease expiry, degraded
//	0.60D  host c1-1 heals                      → re-admission, clean
//	0.70D  host c1-2's connections are severed  → redial, redelivery
//	0.85D  host c1-0 heals
//
// Once the query is cancelled, every agent is flushed and must account
// for each tuple it matched: matched = shipped + queue drops + sink-error
// tuples, nothing still kept, and no sink-error tuple at all (a NetSink
// reports every failure undelivered, so the agent gives up on nothing).
//
// All randomness (fault decisions, reconnect jitter) flows from c1Seed. C1
// runs on the wall clock, unlike the case studies: its faults, leases and
// reconnects happen over real TCP in real time.
func C1ChaosSoak() (*C1Result, error) {
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
	))
	hosts := make([]core.HostSpec, c1Hosts)
	for i := range hosts {
		hosts[i] = core.HostSpec{Name: fmt.Sprintf("c1-%d", i), Service: "BidServers", DC: "DC1"}
	}

	inj := chaos.New(c1Seed)
	nc, err := core.NewNetCluster(core.NetConfig{
		Catalog: cat,
		Hosts:   hosts,
		Agent: host.Config{
			FlushInterval:     10 * time.Millisecond,
			HeartbeatInterval: 50 * time.Millisecond,
		},
		Central:  central.Options{LeaseTTL: c1LeaseTTL},
		Sink:     host.NetSinkOptions{DialTimeout: 500 * time.Millisecond},
		Control:  host.ControlOptions{BaseBackoff: 50 * time.Millisecond, MaxBackoff: 250 * time.Millisecond, Seed: c1Seed},
		WrapConn: inj.Wrap,
	})
	if err != nil {
		return nil, err
	}
	defer nc.Close()

	client, err := nc.Client()
	if err != nil {
		return nil, err
	}
	defer client.Close()
	q := fmt.Sprintf("select count(*) from bid window %s duration %s",
		c1Window, c1Duration+time.Minute)
	qs, err := client.Query(q)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
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
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("experiments: only %d/%d agents activated", installed, nc.NumAgents())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Traffic: every host logs continuously on wall-clock timestamps.
	schema, _ := cat.Lookup("bid")
	var stop atomic.Bool
	var logged atomic.Uint64
	loggerDone := make(chan struct{})
	go func() {
		defer close(loggerDone)
		var req uint64
		for !stop.Load() {
			now := time.Now()
			for i := 0; i < nc.NumAgents(); i++ {
				req++
				nc.Agent(i).Log(event.NewBuilder(schema).
					SetRequestID(req).SetTime(now).
					Int("user_id", int64(i)).Float("bid_price", 1.25).
					MustBuild())
				logged.Add(1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Scripted faults, scaled to the soak duration.
	D := c1Duration
	severed := make(chan int, 1)
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		lossy := chaos.Faults{DropProb: 0.3, DupProb: 0.1, ReorderProb: 0.2}
		part := chaos.Partitioned()
		inj.Schedule(nil, []chaos.Step{
			{At: D / 4, Host: "c1-0", Faults: &lossy},
			{At: 2 * D / 5, Host: "c1-1", Faults: &part},
			{At: 3 * D / 5, Host: "c1-1"}, // heal
		})
		severed <- inj.Kill("c1-2") // 0.6D has passed; sever and watch it recover
		inj.Schedule(nil, []chaos.Step{
			{At: D / 4, Host: "c1-0"}, // 0.6D + 0.25D = 0.85D: heal the lossy link
		})
	}()
	<-schedDone // blocks until 0.85D has elapsed
	// Run out the rest of the soak plus the lateness tail so post-heal
	// windows actually close clean before we stop.
	time.Sleep(3*D/20 + 3*time.Second)

	stop.Store(true)
	<-loggerDone
	time.Sleep(300 * time.Millisecond)
	if err := qs.Cancel(); err != nil {
		return nil, err
	}
	var wins []transport.ResultWindow
	for rw := range qs.Windows {
		wins = append(wins, rw)
	}
	stats, err := qs.Final()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nc.NumAgents(); i++ {
		a := nc.Agent(i)
		a.Flush()
		st := a.Stats()
		if st.Matched != st.Shipped+st.QueueDrops+st.SinkErrorTuples || st.Kept != 0 || st.SinkErrorTuples != 0 {
			return nil, fmt.Errorf("experiments: C1: host %s does not account for what it matched: matched %d, shipped %d, queue drops %d, sink-error tuples %d, kept %d",
				a.ID(), st.Matched, st.Shipped, st.QueueDrops, st.SinkErrorTuples, st.Kept)
		}
	}

	res := &C1Result{
		Windows:        len(wins),
		EvictionsNamed: true,
		HostDrops:      stats.HostDrops,
		LateDrops:      stats.LateDrops,
		SeveredConns:   <-severed,
		EventsLogged:   logged.Load(),
	}
	for _, rw := range wins {
		if !rw.Degraded {
			continue
		}
		res.DegradedWindows++
		named := false
		for _, s := range rw.Streams {
			if s.Evicted && s.HostID == "c1-1" {
				named = true
			}
		}
		if !named {
			res.EvictionsNamed = false
		}
	}
	if len(wins) > 0 {
		res.LastClean = !wins[len(wins)-1].Degraded
	}
	return res, nil
}

// Table renders the soak summary.
func (r *C1Result) Table() *Table {
	t := &Table{
		ID:      "C1",
		Title:   "Chaos soak: lossy link, partition with lease eviction, abrupt kill",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("hosts", fmtI(c1Hosts))
	t.AddRow("soak duration", c1Duration.String())
	t.AddRow("chaos seed", fmtI(c1Seed))
	t.AddRow("events logged", fmtI(int64(r.EventsLogged)))
	t.AddRow("windows emitted", fmtI(int64(r.Windows)))
	t.AddRow("degraded windows", fmtI(int64(r.DegradedWindows)))
	t.AddRow("degraded windows named evicted host", fmt.Sprintf("%v", r.EvictionsNamed))
	t.AddRow("final window clean after heal", fmt.Sprintf("%v", r.LastClean))
	t.AddRow("host drops (cumulative)", fmtI(int64(r.HostDrops)))
	t.AddRow("late drops", fmtI(int64(r.LateDrops)))
	t.AddRow("connections severed by kill", fmtI(int64(r.SeveredConns)))
	t.Notes = append(t.Notes,
		"windows keep closing through a partitioned host: lease expiry evicts its stream from the watermark",
		"degraded results carry per-stream accounting (matched/sampled/drops/late) for every known stream",
	)
	return t
}
