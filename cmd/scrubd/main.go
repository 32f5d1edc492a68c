// Command scrubd runs a standalone Scrub host agent: it registers with
// the query server's control port, ships tuples to ScrubCentral's data
// port, and — since an agent without an application produces nothing —
// optionally generates demo events so a fresh deployment can be smoke-
// tested end to end.
//
// In a real integration the agent is embedded in the application process
// (internal/host); scrubd exists for deployment bring-up and protocol
// testing.
//
// Usage:
//
//	scrubd -host bid-sj-1 -service BidServers -dc DC1 \
//	    -control 127.0.0.1:7701 -data 127.0.0.1:7702 \
//	    -schema events.schema -demo bid=200
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/governor"
	"scrub/internal/host"
	"scrub/internal/obs"
	"scrub/internal/replay"
	"scrub/internal/transport"
)

func main() {
	hostID := flag.String("host", "", "unique host name (required)")
	service := flag.String("service", "", "service name, e.g. BidServers (required)")
	dc := flag.String("dc", "DC1", "data center label")
	controlAddr := flag.String("control", "127.0.0.1:7701", "query server control address")
	dataAddr := flag.String("data", "127.0.0.1:7702", "ScrubCentral data address")
	schemaPath := flag.String("schema", "", "schema file declaring the event types")
	useAdPlatform := flag.Bool("adplatform", false, "register the simulated ad platform's event types")
	demo := flag.String("demo", "", "generate demo events: type=rate[,type=rate...] per second")
	seed := flag.Int64("seed", 1, "demo generator seed")
	metricsAddr := flag.String("metrics", "", "observability listen address for /metrics and /debug/pprof (e.g. 127.0.0.1:0); empty disables")
	hostCPU := flag.Float64("budget-cpu", 0, "global per-host CPU budget for all scrub work, as a fraction of one core (0 disables)")
	hostBytes := flag.Float64("budget-bytes", 0, "global per-host shipping budget in bytes/sec (0 disables)")
	record := flag.Bool("record", false, "record every logged event into the local replay store so REPLAY queries can ship history")
	recordDir := flag.String("record-dir", "", "directory for the replay store's disk tier (empty keeps sealed chunks in memory only)")
	recordRetain := flag.Duration("record-retain", 0, "replay store retention window; chunks older than this are evicted (0 = default 15m)")
	flag.Parse()

	if *hostID == "" || *service == "" {
		log.Fatal("scrubd: -host and -service are required")
	}
	catalog := event.NewCatalog()
	if *useAdPlatform {
		adplatform.RegisterEventTypes(catalog)
	}
	if *schemaPath != "" {
		if err := event.LoadSchemaFile(catalog, *schemaPath); err != nil {
			log.Fatalf("scrubd: %v", err)
		}
	}
	if catalog.Len() == 0 {
		log.Fatal("scrubd: no event types; pass -schema or -adplatform")
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	var recStore *replay.Store
	if *record {
		var err error
		recStore, err = replay.Open(replay.Options{
			Catalog: catalog,
			Dir:     *recordDir,
			MaxAge:  *recordRetain,
			Metrics: reg,
		})
		if err != nil {
			log.Fatalf("scrubd: replay store: %v", err)
		}
	} else if *recordDir != "" || *recordRetain != 0 {
		log.Fatal("scrubd: -record-dir/-record-retain require -record")
	}
	sink := host.NewNetSinkWith(*dataAddr, *hostID, host.NetSinkOptions{Metrics: reg})
	// Batches route through the shard fabric when the control plane pins
	// queries to a shard-map epoch; unpinned queries fall back to the
	// plain data connection, so the same agent serves both deployments.
	md := &manifestDialer{addr: *dataAddr, hostID: *hostID}
	router := coord.NewRouter(md.send, sink.SendBatch)
	agent, err := host.New(host.Config{
		HostID: *hostID, Service: *service, DC: *dc,
		Catalog: catalog, Sink: router,
		Metrics: reg,
		Record:  recStore,
		Governor: governor.Config{
			HostBudget: governor.Budget{CPUPct: *hostCPU, BytesPerSec: *hostBytes},
		},
	})
	if err != nil {
		log.Fatalf("scrubd: %v", err)
	}
	if reg != nil {
		bound, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("scrubd: metrics listener: %v", err)
		}
		// Parseable line: scripts/metricssmoke scrapes the bound address.
		fmt.Printf("scrubd metrics: http://%s/metrics\n", bound)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		opts := host.ControlOptions{
			Metrics:      reg,
			OnShardMap:   router.HandleShardMap,
			OnQueryPin:   router.PinQuery,
			OnQueryUnpin: router.UnpinQuery,
		}
		if err := agent.RunControlWith(ctx, *controlAddr, opts); err != nil && ctx.Err() == nil {
			log.Printf("scrubd: control loop: %v", err)
		}
	}()

	if *demo != "" {
		if err := startDemoGenerators(ctx, agent, catalog, *demo, *seed); err != nil {
			log.Fatalf("scrubd: %v", err)
		}
	}

	fmt.Printf("scrubd up: host=%s service=%s dc=%s types=%v\n", *hostID, *service, *dc, catalog.Names())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	cancel()
	agent.Close()
	router.Close()
	md.close()
	sink.Close()
	if recStore != nil {
		recStore.Close()
	}
	st := agent.Stats()
	fmt.Printf("scrubd: done. logged=%d matched=%d shipped=%d drops=%d\n",
		st.Logged, st.Matched, st.Shipped, st.QueueDrops)
}

// manifestDialer lazily opens the router's manifest channel to the
// coordinator's data plane. Errors reset the connection so the next
// manifest redials — a transient coordinator outage costs the manifests
// it swallows, not state: a lost manifest's per-batch facts go with it,
// and the agent charges its batch once, to its sink-error tuples.
type manifestDialer struct {
	addr   string
	hostID string

	mu   sync.Mutex
	conn *transport.Conn
	fn   coord.ManifestFunc
}

func (d *manifestDialer) send(m transport.BatchManifest) error {
	d.mu.Lock()
	if d.fn == nil {
		conn, err := transport.Dial(d.addr, 3*time.Second)
		if err != nil {
			d.mu.Unlock()
			return err
		}
		if err := conn.Send(transport.DataHello{HostID: d.hostID}); err != nil {
			conn.Close()
			d.mu.Unlock()
			return err
		}
		d.conn, d.fn = conn, coord.NewManifestClient(conn)
	}
	fn := d.fn
	d.mu.Unlock()
	if err := fn(m); err != nil {
		d.close()
		return err
	}
	return nil
}

func (d *manifestDialer) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.conn != nil {
		d.conn.Close()
	}
	d.conn, d.fn = nil, nil
}

// startDemoGenerators spawns one goroutine per type=rate spec, producing
// random-but-typed events.
func startDemoGenerators(ctx context.Context, agent *host.Agent, catalog *event.Catalog, spec string, seed int64) error {
	reqGen := event.NewRequestIDGenerator(uint16(seed))
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad -demo entry %q (want type=rate)", part)
		}
		schema, ok := catalog.Lookup(kv[0])
		if !ok {
			return fmt.Errorf("-demo type %q not in catalog", kv[0])
		}
		rate, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || rate <= 0 {
			return fmt.Errorf("bad -demo rate %q", kv[1])
		}
		go func(schema *event.Schema, rate float64, genSeed int64) {
			rng := rand.New(rand.NewSource(genSeed))
			interval := time.Duration(float64(time.Second) / rate)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					agent.Log(randomEvent(schema, reqGen.Next(), rng))
				}
			}
		}(schema, rate, seed+int64(len(kv[0])))
	}
	return nil
}

// randomEvent fills a schema with plausible random values.
func randomEvent(schema *event.Schema, reqID uint64, rng *rand.Rand) *event.Event {
	b := event.NewBuilder(schema).SetRequestID(reqID).SetTime(time.Now())
	words := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i := 0; i < schema.NumFields(); i++ {
		f := schema.Field(i)
		switch f.Kind {
		case event.KindBool:
			b.Bool(f.Name, rng.Intn(2) == 0)
		case event.KindInt:
			b.Int(f.Name, int64(rng.Intn(1000)))
		case event.KindFloat:
			b.Float(f.Name, rng.Float64()*10)
		case event.KindString:
			b.Str(f.Name, words[rng.Intn(len(words))])
		case event.KindTime:
			b.Time(f.Name, time.Now())
		case event.KindList:
			switch f.Elem {
			case event.KindInt:
				b.Set(f.Name, event.IntList(int64(rng.Intn(10)), int64(rng.Intn(10))))
			case event.KindFloat:
				b.Set(f.Name, event.FloatList(rng.Float64(), rng.Float64()))
			case event.KindString:
				b.Set(f.Name, event.StrList(words[rng.Intn(len(words))]))
			}
		}
	}
	return b.MustBuild()
}
