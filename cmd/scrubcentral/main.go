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
	"scrub/internal/cluster"
	"scrub/internal/coord"
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
	peers := flag.String("peers", "", "comma-separated standby replication addresses to stream the control-plane log to (with -coord)")
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
	if *standbyListen != "" {
		runStandby(standbyConfig{
			catalog: catalog, listen: *standbyListen,
			clientAddr: *clientAddr, controlAddr: *controlAddr, dataAddr: *dataAddr,
			metricsAddr: *metricsAddr,
			timeout:     *failoverTimeout, rank: *standbyRank,
		})
		return
	}

	registry := cluster.NewRegistry()
	hub, err := server.NewHub(registry, *clientAddr, *controlAddr, *dataAddr)
	if err != nil {
		log.Fatalf("scrubcentral: %v", err)
	}
	reg := newRegistry(*metricsAddr)
	copt := central.Options{Metrics: reg}
	var engine central.Executor
	var coordEng *coord.Coordinator
	switch {
	case *coordMode:
		coordEng = coord.NewCoordinator(copt)
		for _, addr := range strings.Split(*shardAddrs, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
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
	srv, err := server.New(server.Config{
		Catalog:    catalog,
		Registry:   registry,
		Engine:     engine,
		Dispatcher: hub,
	})
	if err != nil {
		log.Fatalf("scrubcentral: %v", err)
	}
	hub.SetMetrics(reg)
	hub.SetServer(srv)
	if coordEng != nil {
		// Push every membership epoch to registered hosts; the hook may
		// fire under the coordinator's lock, so dispatch asynchronously.
		coordEng.OnShardMap(func(m transport.ShardMap) { go hub.BroadcastShardMap(m) })
	}
	hub.Serve()

	serveMetrics(*metricsAddr, reg)
	fmt.Printf("scrubcentral up\n  client:  %s\n  control: %s\n  data:    %s\n  event types: %v\n",
		hub.ClientAddr(), hub.ControlAddr(), hub.DataAddr(), catalog.Names())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("scrubcentral: shutting down")
	srv.Close()
	hub.Close()
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

	var joinConn *transport.Conn
	if join != "" {
		joinConn, err = transport.Dial(join, 3*time.Second)
		if err != nil {
			log.Fatalf("scrubcentral: join %s: %v", join, err)
		}
		if err := joinConn.Send(transport.DataHello{HostID: "shard:" + advertise}); err != nil {
			log.Fatalf("scrubcentral: join %s: %v", join, err)
		}
		if err := joinConn.Send(transport.ShardHello{ShardID: advertise, DataAddr: advertise}); err != nil {
			log.Fatalf("scrubcentral: join %s: %v", join, err)
		}
		// Hold the connection open (and drain it) so the coordinator's hub
		// keeps the session; membership health rides the dialed-back RPC
		// connection, not this one.
		go func() {
			for {
				if _, err := joinConn.Recv(); err != nil {
					return
				}
			}
		}()
		fmt.Printf("  joined: %s (advertised %s)\n", join, advertise)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("scrubcentral shard: shutting down")
	l.Close()
	if joinConn != nil {
		joinConn.Close()
	}
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

type standbyConfig struct {
	catalog                           *event.Catalog
	listen                            string
	clientAddr, controlAddr, dataAddr string
	metricsAddr                       string
	timeout                           time.Duration
	rank                              int
}

// runStandby serves one warm coordinator standby: it shadows the leader's
// replicated control-plane log, and when the leader falls silent for the
// (rank-staggered) failover timeout, it promotes — fencing the shards
// under a higher epoch, resuming every replicated query, and taking over
// the leader's client/control/data addresses so host agents and
// troubleshooters reconnect to it transparently.
func runStandby(cfg standbyConfig) {
	l, err := transport.Listen(cfg.listen)
	if err != nil {
		log.Fatalf("scrubcentral: standby listener: %v", err)
	}
	reg := newRegistry(cfg.metricsAddr)
	sb := coord.NewStandby(coord.StandbyOptions{
		Central:         central.Options{Metrics: reg},
		Catalog:         cfg.catalog,
		FailoverTimeout: cfg.timeout,
		Rank:            cfg.rank,
	})
	go sb.Serve(l)
	fmt.Printf("scrubcentral standby up\n  replication: %s\n  rank: %d  failover timeout: %s\n",
		l.Addr(), cfg.rank, cfg.timeout*time.Duration(cfg.rank+1))

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() { <-sig; close(stop) }()

	if !sb.AwaitFailover(stop) {
		fmt.Println("scrubcentral standby: shutting down")
		l.Close()
		return
	}
	term, applied, qids := sb.Snapshot()
	fmt.Printf("scrubcentral standby: leader silent — promoting (term %d, %d log entries, queries %v)\n",
		term, applied, qids)

	coordEng, resumed, err := sb.Promote(func(rq coord.ResumedQuery, _ *central.Plan) central.EmitFunc {
		// The submitter's client connection died with the leader; windows
		// of resumed queries are printed until the span expires (a future
		// re-attach surface would hook in here). Parseable line: the
		// failover smoke counts these.
		id := rq.QueryID
		return func(rw transport.ResultWindow) {
			fmt.Printf("scrubcentral adopted window: query %d [%d,%d) rows=%d degraded=%v\n",
				id, rw.WindowStart, rw.WindowEnd, len(rw.Rows), rw.Degraded)
		}
	})
	if err != nil {
		log.Fatalf("scrubcentral: promote: %v", err)
	}

	// The leader is dead, so its addresses are free — but kernel teardown
	// of a kill -9'd listener can lag a moment; retry briefly.
	registry := cluster.NewRegistry()
	var hub *server.Hub
	for attempt := 0; ; attempt++ {
		hub, err = server.NewHub(registry, cfg.clientAddr, cfg.controlAddr, cfg.dataAddr)
		if err == nil {
			break
		}
		if attempt >= 20 {
			log.Fatalf("scrubcentral: bind leader addresses: %v", err)
		}
		time.Sleep(250 * time.Millisecond)
	}
	srv, err := server.New(server.Config{
		Catalog:    cfg.catalog,
		Registry:   registry,
		Engine:     coordEng,
		Dispatcher: hub,
	})
	if err != nil {
		log.Fatalf("scrubcentral: %v", err)
	}
	hub.SetMetrics(reg)
	hub.SetServer(srv)
	coordEng.OnShardMap(func(m transport.ShardMap) { go hub.BroadcastShardMap(m) })
	for _, rq := range resumed {
		id := rq.QueryID
		_, err := srv.Adopt(id, rq.Text,
			time.Unix(0, rq.StartNanos), time.Unix(0, rq.EndNanos), rq.PinEpoch,
			server.Callbacks{Done: func(qd transport.QueryDone) {
				log.Printf("scrubcentral: adopted query %d done: %+v", id, qd.Stats)
			}})
		if err != nil {
			log.Printf("scrubcentral: adopt query %d: %v", id, err)
		}
	}
	hub.Serve()

	serveMetrics(cfg.metricsAddr, reg)
	fmt.Printf("scrubcentral up (promoted leader, fence %d)\n  client:  %s\n  control: %s\n  data:    %s\n  resumed queries: %d\n",
		coordEng.Fence(), hub.ClientAddr(), hub.ControlAddr(), hub.DataAddr(), len(resumed))

	<-stop
	fmt.Println("scrubcentral: shutting down")
	srv.Close()
	hub.Close()
}
