package experiments

import (
	"fmt"
	"reflect"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/logbase"
	"scrub/internal/workload"
)

// P5Config parametrizes the Scrub-vs-logging comparison (§1, §8.1's cost
// contrast): the same workload and the same troubleshooting question,
// answered (a) by Scrub — selection, projection and sampling on hosts,
// results online — and (b) by full-event logging plus a batch scan.
type P5Config struct {
	Users    int           // default 1000
	Duration time.Duration // default 2m
	Seed     int64
}

func (c *P5Config) fillDefaults() {
	if c.Users == 0 {
		c.Users = 1000
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 9505
	}
}

// P5Result contrasts the two architectures on one workload + query.
type P5Result struct {
	Config P5Config
	Query  string

	// Scrub side.
	ScrubTuplesShipped uint64
	ScrubBytesShipped  uint64
	ScrubRows          int

	// Logging side.
	LogEventsShipped uint64
	LogBytesShipped  uint64
	LogScanElapsed   time.Duration
	LogRows          int

	// BytesRatio = logging bytes / Scrub bytes.
	BytesRatio float64
}

// P5VsLogging runs the comparison. The question asked is the spam query:
// per-user bid counts — which needs only user_id from bid events, while
// the platform also produces impression/click/auction events that logging
// must retain because "queries are not known a priori". Both sides run
// the same traffic from the same epoch, so they must give the same answer,
// window for window; a difference is an error.
func P5VsLogging(cfg P5Config) (*P5Result, error) {
	cfg.fillDefaults()
	res := &P5Result{Config: cfg}
	res.Query = `select bid.user_id, count(*) from bid group by bid.user_id window 10s duration 1h @[Service in BidServers]`
	newSide := func() (*adplatform.Platform, *workload.Generator, error) {
		return newSim(adplatform.Config{
			NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
			LineItems: adplatform.GenerateLineItems(60, cfg.Seed),
		}, workload.Spec{Seed: cfg.Seed, NumUsers: cfg.Users, MeanPageViewsPerMin: 3})
	}

	// --- Scrub side ---
	platform, gen, err := newSide()
	if err != nil {
		return nil, err
	}
	wins, err := RunScenario(platform.Cluster, []string{res.Query}, func() {
		drive(platform, gen, cfg.Duration, func(r adplatform.BidRequest) { platform.Process(r) })
	})
	if err != nil {
		platform.Close()
		return nil, err
	}
	for _, bs := range platform.BidServers {
		res.ScrubTuplesShipped += bs.Agent().Stats().Shipped
	}
	platform.Close()
	// Per-tuple wire cost for this projection: request id + ts + one int
	// value, plus amortized batch framing.
	res.ScrubBytesShipped = res.ScrubTuplesShipped * (8 + 8 + 1 + 9)
	for _, rw := range wins[0] {
		res.ScrubRows += len(rw.Rows)
	}

	// --- Logging side: same traffic, every event fully shipped ---
	platform, gen, err = newSide()
	if err != nil {
		return nil, err
	}
	defer platform.Close()
	store := logbase.NewLogStore()
	loggers := make(map[string]*logbase.Logger)
	logAt := func(a *host.Agent, ev *event.Event) {
		l, ok := loggers[a.ID()]
		if !ok {
			l = logbase.NewLogger(a.ID(), store)
			loggers[a.ID()] = l
		}
		l.Log(ev)
	}
	// Mirror every platform event into the log, as a logging-based
	// deployment would. No query runs on this side, so the agents ship
	// nothing and need no flushing.
	gen.Run(cfg.Duration, func(r adplatform.BidRequest) {
		resp, out, ok := platform.Process(r)
		// Reconstruct the events logging must retain: the bid, the
		// impression. (Exclusions/auctions are off in this config for both
		// sides, keeping the comparison apples-to-apples.)
		if !ok {
			return
		}
		logAt(platform.BidServers[int(r.RequestID%uint64(len(platform.BidServers)))].Agent(), mustBuildBid(r, resp))
		if out.Impression {
			logAt(platform.PresServers[int(uint64(r.UserID)%uint64(len(platform.PresServers)))].Agent(), mustBuildImpression(r, resp, out))
		}
	})
	res.LogEventsShipped = uint64(store.Len())
	res.LogBytesShipped = store.Bytes()

	scan, err := store.RunQuery(res.Query, platform.Catalog)
	if err != nil {
		return nil, err
	}
	res.LogScanElapsed = scan.Elapsed
	for _, rw := range scan.Windows {
		res.LogRows += len(rw.Rows)
	}
	if len(scan.Windows) != len(wins[0]) {
		return nil, fmt.Errorf("experiments: P5: Scrub emitted %d windows, the logging scan %d", len(wins[0]), len(scan.Windows))
	}
	for i, rw := range scan.Windows {
		if s := wins[0][i]; s.WindowStart != rw.WindowStart || !reflect.DeepEqual(s.Rows, rw.Rows) {
			return nil, fmt.Errorf("experiments: P5: window %d differs: Scrub [%d] %d rows, logging [%d] %d rows",
				i, s.WindowStart, len(s.Rows), rw.WindowStart, len(rw.Rows))
		}
	}

	if res.ScrubBytesShipped > 0 {
		res.BytesRatio = float64(res.LogBytesShipped) / float64(res.ScrubBytesShipped)
	}
	return res, nil
}

func mustBuildBid(r adplatform.BidRequest, resp adplatform.BidResponse) *event.Event {
	return event.NewBuilder(adplatform.BidEventSchema).
		SetRequestID(r.RequestID).SetTimeNanos(r.TimeNanos).
		Int("exchange_id", r.ExchangeID).
		Int("user_id", r.UserID).
		Str("city", r.City).
		Str("country", r.Country).
		Float("bid_price", resp.BidPrice).
		Int("campaign_id", resp.CampaignID).
		Int("line_item_id", resp.LineItemID).
		Str("model", resp.ModelName).
		MustBuild()
}

func mustBuildImpression(r adplatform.BidRequest, resp adplatform.BidResponse, out adplatform.Outcome) *event.Event {
	return event.NewBuilder(adplatform.ImpressionEventSchema).
		SetRequestID(r.RequestID).SetTimeNanos(r.TimeNanos).
		Int("line_item_id", resp.LineItemID).
		Int("exchange_id", r.ExchangeID).
		Int("user_id", r.UserID).
		Float("cost", out.Cost).
		Str("model", resp.ModelName).
		Int("serve_count", int64(out.ServeCount)).
		MustBuild()
}

// Table renders the contrast.
func (r *P5Result) Table() *Table {
	t := &Table{
		ID:      "P5",
		Title:   "Scrub vs full-event logging on the spam query (§1, §8.1 contrast)",
		Columns: []string{"metric", "Scrub", "logging"},
	}
	t.AddRow("events/tuples shipped", fmtI(int64(r.ScrubTuplesShipped)), fmtI(int64(r.LogEventsShipped)))
	t.AddRow("bytes shipped", fmtI(int64(r.ScrubBytesShipped)), fmtI(int64(r.LogBytesShipped)))
	t.AddRow("result rows", fmtI(int64(r.ScrubRows)), fmtI(int64(r.LogRows)))
	t.AddRow("answer arrives", "online, per window", "after a batch scan")
	t.Notes = append(t.Notes,
		fmt.Sprintf("batch scan wall time: %.1fms", float64(r.LogScanElapsed.Microseconds())/1000),
		fmt.Sprintf("logging ships %.1f× the bytes for this query", r.BytesRatio),
		"the gap widens with schema width and with queries that select narrowly — logging must retain everything because queries are not known a priori")
	return t
}
