// Command scrubcentral runs the central half of a Scrub deployment in one
// process: the query server and ScrubCentral, fronted by three TCP
// listeners — client (troubleshooters), control (host agents register and
// receive query objects), and data (tuple batches). Without a mode flag
// the process is a single node: one ScrubCentral kernel behind the merger.
//
// The event catalog comes from a schema file (see internal/event schema-
// file syntax) or, with -adplatform, the simulated ad platform's types.
//
// A cluster splits ScrubCentral across processes, one kernel each:
//
//	scrubcentral -shard :7710 -join 127.0.0.1:7702   # one per shard
//	scrubcentral -coord -schema events.schema \
//	    -client :7700 -control :7701 -data :7702     # the coordinator
//
// The coordinator owns query registration and shard membership; shard
// processes hold the window state for their slice of the request-id
// space. Shards enroll statically (-shard-addrs on the coordinator) or
// dynamically (-join on the shard).
//
// Usage:
//
//	scrubcentral -schema events.schema \
//	    -client :7700 -control :7701 -data :7702
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/central"
	"scrub/internal/coord"
	"scrub/internal/core"
	"scrub/internal/event"
	"scrub/internal/obs"
	"scrub/internal/server"
	"scrub/internal/transport"
)

func main() {
	schemaPath := flag.String("schema", "", "schema file declaring the event types")
	useAdPlatform := flag.Bool("adplatform", false, "register the simulated ad platform's event types")
	clientAddr := flag.String("client", "127.0.0.1:7700", "client (troubleshooter) listen address")
	controlAddr := flag.String("control", "127.0.0.1:7701", "agent control listen address")
	dataAddr := flag.String("data", "127.0.0.1:7702", "agent data listen address")
	metricsAddr := flag.String("metrics", "", "observability listen address for /metrics and /debug/pprof (e.g. 127.0.0.1:0); empty disables")
	coordMode := flag.Bool("coord", false, "run ScrubCentral as a multi-process shard-fabric coordinator")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated shard data addresses to enroll at startup (with -coord)")
	shardListen := flag.String("shard", "", "run as a shard process serving shard RPC on this address (exclusive with -coord)")
	joinAddr := flag.String("join", "", "coordinator data address to announce this shard to (with -shard)")
	advertise := flag.String("advertise", "", "address the coordinator should dial this shard back on (with -shard -join; default: the bound -shard address)")
	peers := flag.String("peers", "", "comma-separated standby replication addresses to push the control-plane state to (with -coord)")
	standbyListen := flag.String("standby", "", "run as a warm coordinator standby serving replication RPC on this address (exclusive with -coord/-shard)")
	failoverTimeout := flag.Duration("failover-timeout", 2*time.Second, "leader silence before the standby promotes itself (with -standby)")
	standbyRank := flag.Int("rank", 0, "standby rank: rank N waits (N+1) failover timeouts, so lower ranks promote first (with -standby)")
	flag.Parse()

	if *coordMode && *shardListen != "" {
		log.Fatal("scrubcentral: -coord and -shard are mutually exclusive")
	}
	if *standbyListen != "" && (*coordMode || *shardListen != "") {
		log.Fatal("scrubcentral: -standby is exclusive with -coord and -shard")
	}
	if *peers != "" && !*coordMode {
		log.Fatal("scrubcentral: -peers requires -coord")
	}

	catalog := event.NewCatalog()
	if *useAdPlatform {
		adplatform.RegisterEventTypes(catalog)
	}
	if *schemaPath != "" {
		if err := event.LoadSchemaFile(catalog, *schemaPath); err != nil {
			log.Fatalf("scrubcentral: %v", err)
		}
	}
	if catalog.Len() == 0 {
		log.Fatal("scrubcentral: no event types; pass -schema or -adplatform")
	}

	if *shardListen != "" {
		runShard(catalog, *shardListen, *joinAddr, *advertise, *metricsAddr)
		return
	}
	addrs := server.Addrs{Client: *clientAddr, Control: *controlAddr, Data: *dataAddr}
	if *standbyListen != "" {
		runStandby(catalog, *standbyListen, *metricsAddr, addrs, *failoverTimeout, *standbyRank)
		return
	}

	reg := newRegistry(*metricsAddr)
	copt := central.Options{Metrics: reg}
	var engine central.Executor
	switch {
	case *coordMode:
		coordEng := coord.NewCoordinator(copt)
		for _, addr := range splitAddrs(*shardAddrs) {
			if err := coordEng.AddShard(addr); err != nil {
				log.Fatalf("scrubcentral: enroll shard %s: %v", addr, err)
			}
		}
		if *peers != "" {
			// Replicate the control plane to warm standbys under fencing
			// term 1; a standby that takes over promotes to term 2+.
			coordEng.StartReplication(coord.ReplicationConfig{Term: 1})
			for _, addr := range splitAddrs(*peers) {
				if err := coordEng.AddStandby(addr); err != nil {
					log.Fatalf("scrubcentral: add standby %s: %v", addr, err)
				}
			}
		}
		engine = coordEng
	default:
		// One process runs one kernel; n = 1 cannot fail.
		engine, _ = central.NewShardedEngineWith(1, copt)
	}
	node, err := server.Listen(addrs, server.Config{Catalog: catalog, Engine: engine}, reg, log.Printf, nil)
	if err != nil {
		log.Fatalf("scrubcentral: %v", err)
	}

	serveMetrics(*metricsAddr, reg)
	a := node.Addrs()
	fmt.Printf("scrubcentral up\n  client:  %s\n  control: %s\n  data:    %s\n  event types: %v\n",
		a.Client, a.Control, a.Data, catalog.Names())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("scrubcentral: shutting down")
	node.Close()
}

// runShard serves one shard process: a central.Engine kernel behind the
// shard RPC listener. With -join it announces itself on the coordinator's
// data plane; the coordinator dials the advertised address back and pushes
// a new shard-map epoch to the host fleet. With -metrics it serves the
// state gauges of the windows it holds (ingest is counted at the
// coordinator).
func runShard(catalog *event.Catalog, listen, join, advertise, metricsAddr string) {
	reg := newRegistry(metricsAddr)
	node := coord.NewShardNodeWith(catalog, reg)
	l, err := transport.Listen(listen)
	if err != nil {
		log.Fatalf("scrubcentral: shard listener: %v", err)
	}
	go node.Serve(l)
	if advertise == "" {
		advertise = l.Addr()
	}
	serveMetrics(metricsAddr, reg)
	fmt.Printf("scrubcentral shard up\n  shard rpc: %s\n  event types: %v\n", l.Addr(), catalog.Names())

	if join != "" {
		if err := coord.Announce(join, advertise); err != nil {
			log.Fatalf("scrubcentral: join %s: %v", join, err)
		}
		fmt.Printf("  joined: %s (advertised %s)\n", join, advertise)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("scrubcentral shard: shutting down")
	l.Close()
}

// newRegistry returns the process's metrics registry, nil when -metrics
// is not set: every mode of scrubcentral builds its engine over it.
func newRegistry(metricsAddr string) *obs.Registry {
	if metricsAddr == "" {
		return nil
	}
	return obs.NewRegistry()
}

// serveMetrics serves reg's /metrics and /debug/pprof on metricsAddr, if
// there is a registry to serve.
func serveMetrics(metricsAddr string, reg *obs.Registry) {
	if reg == nil {
		return
	}
	bound, err := obs.Serve(metricsAddr, reg)
	if err != nil {
		log.Fatalf("scrubcentral: metrics listener: %v", err)
	}
	// Parseable line: scripts/metricssmoke scrapes the bound address.
	fmt.Printf("scrubcentral metrics: http://%s/metrics\n", bound)
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// runStandby serves one warm coordinator standby: it holds the
// control-plane state the leader last pushed, and when the leader falls
// silent for the (rank-staggered) failover timeout, core.Takeover
// promotes it on the leader's client/control/data addresses (addrs), so
// host agents and troubleshooters reconnect to it transparently.
func runStandby(catalog *event.Catalog, listen, metricsAddr string, addrs server.Addrs, timeout time.Duration, rank int) {
	l, err := transport.Listen(listen)
	if err != nil {
		log.Fatalf("scrubcentral: standby listener: %v", err)
	}
	reg := newRegistry(metricsAddr)
	sb := coord.NewStandby(coord.StandbyOptions{
		Central:         central.Options{Metrics: reg},
		Catalog:         catalog,
		FailoverTimeout: timeout,
		Rank:            rank,
	})
	go sb.Serve(l)
	fmt.Printf("scrubcentral standby up\n  replication: %s\n  rank: %d  failover timeout: %s\n",
		l.Addr(), rank, timeout*time.Duration(rank+1))

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() { <-sig; close(stop) }()

	if !sb.AwaitFailover(stop) {
		fmt.Println("scrubcentral standby: shutting down")
		l.Close()
		return
	}
	term, qids := sb.Snapshot()
	fmt.Printf("scrubcentral standby: leader silent — promoting (term %d, queries %v)\n", term, qids)

	// The submitters' client connections died with the leader; windows of
	// resumed queries go to stdout through one egress until their spans
	// expire (a future re-attach surface would hook in here). A window
	// that waits 2 s for stdout cuts it, and the cut cancels them.
	cut := make(chan error, 1)
	out := server.NewEgress(func(m transport.Message, _ time.Time) error {
		rw := m.(transport.ResultWindow)
		// Parseable line: the failover smoke counts these.
		_, err := fmt.Printf("scrubcentral adopted window: query %d [%d,%d) rows=%d degraded=%v\n",
			rw.QueryID, rw.WindowStart, rw.WindowEnd, len(rw.Rows), rw.Degraded)
		return err
	}, func(err error) { cut <- err }) // nil once drained at shutdown
	node, resumed, err := core.Takeover(sb, catalog, addrs, reg, func(rw transport.ResultWindow) { out.Queue(rw) })
	if err != nil {
		log.Fatalf("scrubcentral: take over: %v", err)
	}

	serveMetrics(metricsAddr, reg)
	fence, _ := sb.Snapshot()
	a := node.Addrs()
	fmt.Printf("scrubcentral up (promoted leader, fence %d)\n  client:  %s\n  control: %s\n  data:    %s\n  resumed queries: %d\n",
		fence, a.Client, a.Control, a.Data, len(resumed))

	select {
	case err := <-cut: // stdout stalled: no drain before stop
		log.Printf("scrubcentral: adopted windows cut off (%v): cancelling the adopted queries", err)
		for _, rq := range resumed {
			_ = node.Server.Cancel(rq.QueryID)
		}
		<-stop
	case <-stop:
	}
	fmt.Println("scrubcentral: shutting down")
	node.Close()
	out.Close()
	<-out.Done()
}
