package experiments

import (
	"fmt"
	"sort"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/host"
	"scrub/internal/workload"
)

// E4Config parametrizes the §8.4 exclusion investigation (Figures 16–17):
// an equi-join of bid and exclusion events on the request identifier —
// one event type produced at the BidServers, the other at the AdServers —
// grouped by exclusion reason, with selection narrowing to one exchange.
// The case study's point is scalability: every bid request produces a
// flood of exclusions that would be prohibitive to log, while Scrub
// queries them on demand.
type E4Config struct {
	Users      int           // default 800
	Duration   time.Duration // default 90s
	LineItems  int           // default 150 — exclusion volume per request
	ExchangeID int64         // selection target; default 2
	Seed       int64
}

func (c *E4Config) fillDefaults() {
	if c.Users == 0 {
		c.Users = 800
	}
	if c.Duration == 0 {
		c.Duration = 90 * time.Second
	}
	if c.LineItems == 0 {
		c.LineItems = 150
	}
	if c.ExchangeID == 0 {
		c.ExchangeID = 2
	}
	if c.Seed == 0 {
		c.Seed = 8404
	}
}

// E4Result carries the per-reason exclusion distribution for the chosen
// exchange.
type E4Result struct {
	Config E4Config
	// ReasonCounts: exclusion reason → joined occurrences (for requests
	// that produced a bid on the selected exchange).
	ReasonCounts map[string]int64
	// TotalJoined is the total joined rows.
	TotalJoined int64
	// ExclusionEventsLogged counts raw exclusion events the AdServers
	// produced — the volume logging would have had to retain.
	ExclusionEventsLogged uint64
	// TuplesShipped counts what Scrub actually moved for this query.
	TuplesShipped uint64
}

// E4Exclusions runs the experiment.
func E4Exclusions(cfg E4Config) (*E4Result, error) {
	cfg.fillDefaults()
	platform, gen, err := newSim(adplatform.Config{
		NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
		LineItems:      adplatform.GenerateLineItems(cfg.LineItems, cfg.Seed),
		EmitExclusions: true,
		Agent:          host.Config{QueueSize: 1 << 18, BatchSize: 1024},
	}, workload.Spec{
		Seed: cfg.Seed, NumUsers: cfg.Users, MeanPageViewsPerMin: 3,
		Exchanges: []workload.Exchange{
			{ID: 1, Weight: 1}, {ID: 2, Weight: 1}, {ID: 3, Weight: 1},
		},
	})
	if err != nil {
		return nil, err
	}
	defer platform.Close()

	// The Figure-17 join template: bid ⋈ exclusion on request id, with
	// selection on the bid's exchange.
	query := fmt.Sprintf(
		`select exclusion.reason, count(*) from bid, exclusion where bid.exchange_id = %d group by exclusion.reason window 30s duration 1h @[all]`,
		cfg.ExchangeID)
	wins, err := RunScenario(platform.Cluster, []string{query}, func() {
		drive(platform, gen, cfg.Duration, func(r adplatform.BidRequest) { platform.Process(r) })
	})
	if err != nil {
		return nil, err
	}

	res := &E4Result{Config: cfg, ReasonCounts: make(map[string]int64)}
	for _, rw := range wins[0] {
		for _, row := range rw.Rows {
			n, _ := row[1].AsInt()
			res.ReasonCounts[row[0].String()] += n
			res.TotalJoined += n
		}
	}
	for _, as := range platform.AdServers {
		st := as.Agent().Stats()
		res.ExclusionEventsLogged += st.Logged
		res.TuplesShipped += st.Shipped
	}
	for _, bs := range platform.BidServers {
		res.TuplesShipped += bs.Agent().Stats().Shipped
	}
	return res, nil
}

// Table renders the Figure-16 distribution.
func (r *E4Result) Table() *Table {
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("Line-item exclusions (§8.4, Figs. 16–17): bid ⋈ exclusion, exchange %d", r.Config.ExchangeID),
		Columns: []string{"exclusion reason", "occurrences"},
	}
	var reasons []string
	for k := range r.ReasonCounts {
		reasons = append(reasons, k)
	}
	sort.Slice(reasons, func(i, j int) bool { return r.ReasonCounts[reasons[i]] > r.ReasonCounts[reasons[j]] })
	for _, k := range reasons {
		t.AddRow(k, fmtI(r.ReasonCounts[k]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("joined rows: %d; raw ad-server events produced: %d; tuples Scrub shipped: %d",
			r.TotalJoined, r.ExclusionEventsLogged, r.TuplesShipped),
		"paper: every bid request produces tens of thousands of exclusions — logging them all would be prohibitive; Scrub queries them on demand")
	return t
}
