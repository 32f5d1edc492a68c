// Command bidsim runs the simulated Turn-style ad bidding platform with
// a Scrub cluster embedded, generates traffic, executes one Scrub query
// against the live platform, and prints the result windows — a one-shot
// "mini Turn" for trying the query language against realistic events.
//
// Usage:
//
//	bidsim -query 'select bid.user_id, count(*) from bid group by bid.user_id window 10s duration 1h' \
//	    -users 2000 -duration 5m -bots 2
//
// The -duration is virtual time: the simulator runs as fast as it can.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strings"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/host"
	"scrub/internal/ql"
	"scrub/internal/transport"
	"scrub/internal/workload"
)

func main() {
	query := flag.String("query", `select bid.exchange_id, count(*) from bid group by bid.exchange_id window 10s duration 1h`, "Scrub query to run")
	users := flag.Int("users", 1500, "human user population")
	duration := flag.Duration("duration", 2*time.Minute, "virtual traffic duration")
	bots := flag.Int("bots", 0, "number of spam bots to inject")
	lineItems := flag.Int("lineitems", 120, "line items in the portfolio")
	bidServers := flag.Int("bidservers", 4, "BidServer hosts")
	adServers := flag.Int("adservers", 4, "AdServer hosts")
	presServers := flag.Int("presservers", 4, "PresentationServer hosts")
	exclusions := flag.Bool("exclusions", false, "emit exclusion events (high volume)")
	auctions := flag.Bool("auctions", false, "emit auction events")
	explain := flag.Bool("explain", false, "print the query plan (host/central split) before running")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	platform, err := adplatform.New(adplatform.Config{
		NumBidServers:          *bidServers,
		NumAdServers:           *adServers,
		NumPresentationServers: *presServers,
		LineItems:              adplatform.GenerateLineItems(*lineItems, *seed),
		EmitExclusions:         *exclusions,
		EmitAuctions:           *auctions,
		Agent:                  host.Config{FlushInterval: 20 * time.Millisecond, QueueSize: 1 << 16},
	})
	if err != nil {
		log.Fatalf("bidsim: %v", err)
	}
	defer platform.Close()

	var botSpecs []workload.BotSpec
	for b := 0; b < *bots; b++ {
		botSpecs = append(botSpecs, workload.BotSpec{
			UserID:    900001 + int64(b),
			BatchSize: 200 + 100*b,
			Period:    time.Duration(15+5*b) * time.Second,
		})
	}
	gen, err := workload.NewGenerator(workload.Spec{
		Seed: *seed, NumUsers: *users, MeanPageViewsPerMin: 3,
		Exchanges: []workload.Exchange{
			{ID: 1, Weight: 2}, {ID: 2, Weight: 1}, {ID: 3, Weight: 1},
		},
		Bots: botSpecs,
	}, time.Now().Add(5*time.Second))
	if err != nil {
		log.Fatalf("bidsim: %v", err)
	}
	gen.InstallProfiles(platform.Store)

	if *explain {
		q, err := ql.Parse(*query)
		if err != nil {
			log.Fatalf("bidsim: %v", err)
		}
		plan, err := ql.Analyze(q, platform.Catalog)
		if err != nil {
			log.Fatalf("bidsim: %v", err)
		}
		fmt.Print(ql.Explain(plan))
	}

	st, err := platform.Cluster.Query(*query)
	if err != nil {
		log.Fatalf("bidsim: query rejected: %v", err)
	}
	fmt.Printf("query %d on %d/%d hosts; columns %v\n",
		st.Info.ID, st.Info.SampledHosts, st.Info.NumHosts, st.Info.Columns)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for rw := range st.Windows {
			printWindow(rw)
		}
	}()

	start := time.Now()
	var served, clicked int
	n := gen.Run(*duration, func(r adplatform.BidRequest) {
		_, out, ok := platform.Process(r)
		if ok && out.Impression {
			served++
			if out.Click {
				clicked++
			}
		}
	})
	fmt.Printf("traffic: %d bid requests (%d impressions, %d clicks) over %s virtual in %s real\n",
		n, served, clicked, *duration, time.Since(start).Round(time.Millisecond))

	platform.Cluster.FlushAgents()
	platform.Cluster.FlushAgents()
	if err := platform.Cluster.Cancel(st.Info.ID); err != nil {
		log.Fatalf("bidsim: %v", err)
	}
	<-done
	stats := st.Final()
	fmt.Printf("query done: %d windows, %d rows, %d tuples (host drops %d, late drops %d)\n",
		stats.Windows, stats.Rows, stats.TuplesIn, stats.HostDrops, stats.LateDrops)
}

func printWindow(rw transport.ResultWindow) {
	fmt.Printf("-- window [%s, %s) tuples=%d hosts=%d\n",
		time.Unix(0, rw.WindowStart).Format("15:04:05"),
		time.Unix(0, rw.WindowEnd).Format("15:04:05"),
		rw.Stats.TuplesIn, rw.Stats.HostsReporting)
	fmt.Println("  " + strings.Join(rw.Columns, "\t"))
	max := len(rw.Rows)
	const cap = 20
	for i, row := range rw.Rows {
		if i == cap {
			fmt.Printf("  ... %d more rows\n", max-cap)
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
			if rw.Approx && j < len(rw.ErrBounds) && !math.IsNaN(rw.ErrBounds[j]) {
				parts[j] += fmt.Sprintf("±%.3g", rw.ErrBounds[j])
			}
		}
		fmt.Println("  " + strings.Join(parts, "\t"))
	}
}
