package experiments

import (
	"fmt"
	"reflect"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/oracle"
	"scrub/internal/ql"
	"scrub/internal/workload"
)

// P5 is the Scrub-vs-logging comparison (§1, §8.1's cost contrast): the
// same workload and the same troubleshooting question, answered (a) by
// Scrub — selection, projection and sampling on hosts, results online —
// and (b) by full-event logging plus a batch evaluation of the log.
const (
	p5Users    = 400
	p5Duration = time.Minute
	p5Seed     = 9505
	p5Query    = `select bid.user_id, count(*) from bid group by bid.user_id window 10s duration 1h @[Service in BidServers]`
)

// P5Result contrasts the two architectures on one workload + query.
type P5Result struct {
	// Scrub side.
	ScrubTuplesShipped uint64
	ScrubBytesShipped  uint64
	ScrubRows          int

	// Logging side.
	LogEventsShipped uint64
	LogBytesShipped  uint64
	LogRows          int

	// BytesRatio = logging bytes / Scrub bytes.
	BytesRatio float64
}

// P5VsLogging runs the comparison. The question asked is the spam query:
// per-user bid counts — which needs only user_id from bid events, while
// the platform also produces impression events that logging must retain
// because "queries are not known a priori". Both sides run the same
// traffic from the same epoch. The logging side's answer is the exact
// oracle's over the logged bids, which shares no aggregate state with
// ScrubCentral, so the two must agree window for window; a difference is
// an error.
func P5VsLogging() (*P5Result, error) {
	res := &P5Result{}
	newSide := func() (*adplatform.Platform, *workload.Generator, error) {
		return newSim(adplatform.Config{
			NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
			LineItems: adplatform.GenerateLineItems(60, p5Seed),
		}, workload.Spec{Seed: p5Seed, NumUsers: p5Users, MeanPageViewsPerMin: 3})
	}

	// --- Scrub side ---
	platform, gen, err := newSide()
	if err != nil {
		return nil, err
	}
	wins, err := RunScenario(platform.Cluster, []string{p5Query}, func() {
		drive(platform, gen, p5Duration, func(r adplatform.BidRequest) { platform.Process(r) })
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
	q, err := ql.Parse(p5Query)
	if err != nil {
		return nil, err
	}
	plan, err := ql.Analyze(q, platform.Catalog)
	if err != nil {
		return nil, err
	}
	ship := func(ev *event.Event) {
		res.LogEventsShipped++
		res.LogBytesShipped += uint64(len(event.AppendEvent(nil, ev)))
	}
	// Mirror every platform event into the log, as a logging-based
	// deployment would, and keep the bids (every one is a BidServer's)
	// projected to the query's columns. No query runs on this side, so the
	// agents ship nothing and need no flushing.
	var bids []oracle.Event
	gen.Run(p5Duration, func(r adplatform.BidRequest) {
		resp, out, ok := platform.Process(r)
		// Reconstruct the events logging must retain: the bid, the
		// impression. (Exclusions/auctions are off in this config for both
		// sides, keeping the comparison apples-to-apples.)
		if !ok {
			return
		}
		bid := mustBuildBid(r, resp)
		ship(bid)
		e := oracle.Event{RequestID: bid.RequestID, TsNanos: bid.TimeNanos}
		for _, col := range plan.Columns["bid"] {
			e.Values = append(e.Values, bid.Get(col))
		}
		bids = append(bids, e)
		if out.Impression {
			ship(mustBuildImpression(r, resp, out))
		}
	})
	logged, err := oracle.Eval(central.FromPlan(plan, 1, 0, 0, 1, 1), bids)
	if err != nil {
		return nil, err
	}
	for _, w := range logged {
		res.LogRows += len(w.Rows)
	}
	if len(logged) != len(wins[0]) {
		return nil, fmt.Errorf("experiments: P5: Scrub emitted %d windows, the logging side %d", len(wins[0]), len(logged))
	}
	for i, w := range logged {
		if s := wins[0][i]; s.WindowStart != w.Start || !reflect.DeepEqual(s.Rows, w.Rows) {
			return nil, fmt.Errorf("experiments: P5: window %d differs: Scrub [%d] %d rows, logging [%d] %d rows",
				i, s.WindowStart, len(s.Rows), w.Start, len(w.Rows))
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
		fmt.Sprintf("logging ships %.1f× the bytes for this query", r.BytesRatio),
		"the gap widens with schema width and with queries that select narrowly — logging must retain everything because queries are not known a priori")
	return t
}
