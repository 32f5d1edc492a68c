package experiments

import (
	"fmt"
	"strings"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/transport"
	"scrub/internal/workload"
)

// E3Config parametrizes the §8.3 A/B test reproduction (Figures 13–15):
// model A on half the machines, model B on the other half; Scrub queries
// compute each side's CPM (1000·AVG(impression.cost)) and CTR
// (clicks/impressions) by targeting the host lists.
type E3Config struct {
	ServersPerSide int           // ad+presentation servers per model; default 2
	Users          int           // default 3000
	Duration       time.Duration // default 3m
	LineItemID     int64         // the A/B'd line item; default 7777
	Seed           int64
}

func (c *E3Config) fillDefaults() {
	if c.ServersPerSide == 0 {
		c.ServersPerSide = 2
	}
	if c.Users == 0 {
		c.Users = 3000
	}
	if c.Duration == 0 {
		c.Duration = 3 * time.Minute
	}
	if c.LineItemID == 0 {
		c.LineItemID = 7777
	}
	if c.Seed == 0 {
		c.Seed = 8303
	}
}

// E3Side is one model's measured economics.
type E3Side struct {
	Model       string
	CPM         float64
	Impressions int64
	Clicks      int64
	CTR         float64
}

// E3Result carries both sides.
type E3Result struct {
	Config E3Config
	A, B   E3Side
}

// E3ABTesting runs the experiment.
func E3ABTesting(cfg E3Config) (*E3Result, error) {
	cfg.fillDefaults()
	n := cfg.ServersPerSide * 2

	// One open line item under test plus background inventory.
	li := &adplatform.LineItem{ID: cfg.LineItemID, CampaignID: 99, AdvisoryPrice: 2.0}
	li.SetBudget(1e9)
	items := append([]*adplatform.LineItem{li}, adplatform.GenerateLineItems(40, cfg.Seed)...)

	platform, gen, err := newSim(adplatform.Config{
		NumBidServers: 2, NumAdServers: n, NumPresentationServers: n,
		LineItems: items,
		ModelForAdServer: func(i int) adplatform.TargetingModel {
			if i < cfg.ServersPerSide {
				return adplatform.BaselineModel{}
			}
			return adplatform.ImprovedModel{}
		},
		ExternalWinRate: 0.5,
	}, workload.Spec{
		Seed: cfg.Seed, NumUsers: cfg.Users, MeanPageViewsPerMin: 4,
	})
	if err != nil {
		return nil, err
	}
	defer platform.Close()

	hostList := func(model string) string {
		hosts := platform.PresentationHostsForModel(model)
		quoted := make([]string, len(hosts))
		for i, h := range hosts {
			quoted[i] = fmt.Sprintf("%q", h)
		}
		return strings.Join(quoted, ", ")
	}
	// Figure 13 (CPM) and Figure 14 (CTR counts) query templates, one
	// per model, targeting that model's machines. The window spans the
	// whole run — the paper computes daily values.
	queries := []string{
		fmt.Sprintf(`select 1000*avg(impression.cost) from impression where impression.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, cfg.LineItemID, hostList("A")),
		fmt.Sprintf(`select 1000*avg(impression.cost) from impression where impression.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, cfg.LineItemID, hostList("B")),
		fmt.Sprintf(`select count(*) from impression where impression.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, cfg.LineItemID, hostList("A")),
		fmt.Sprintf(`select count(*) from impression where impression.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, cfg.LineItemID, hostList("B")),
		fmt.Sprintf(`select count(*) from click where click.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, cfg.LineItemID, hostList("A")),
		fmt.Sprintf(`select count(*) from click where click.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, cfg.LineItemID, hostList("B")),
	}
	wins, err := RunScenario(platform.Cluster, queries, func() {
		drive(platform, gen, cfg.Duration, func(r adplatform.BidRequest) { platform.Process(r) })
	})
	if err != nil {
		return nil, err
	}

	firstFloat := func(ws []transport.ResultWindow) float64 {
		for _, rw := range ws {
			for _, row := range rw.Rows {
				if f, ok := row[0].AsFloat(); ok {
					return f
				}
			}
		}
		return 0
	}
	sumInt := func(ws []transport.ResultWindow) int64 {
		var t int64
		for _, rw := range ws {
			for _, row := range rw.Rows {
				if v, ok := row[0].AsInt(); ok {
					t += v
				}
			}
		}
		return t
	}

	res := &E3Result{Config: cfg}
	res.A = E3Side{Model: "A", CPM: firstFloat(wins[0]), Impressions: sumInt(wins[2]), Clicks: sumInt(wins[4])}
	res.B = E3Side{Model: "B", CPM: firstFloat(wins[1]), Impressions: sumInt(wins[3]), Clicks: sumInt(wins[5])}
	if res.A.Impressions > 0 {
		res.A.CTR = float64(res.A.Clicks) / float64(res.A.Impressions)
	}
	if res.B.Impressions > 0 {
		res.B.CTR = float64(res.B.Clicks) / float64(res.B.Impressions)
	}
	return res, nil
}

// Table renders the Figure-15 comparison.
func (r *E3Result) Table() *Table {
	t := &Table{
		ID:      "E3",
		Title:   "A/B model test (§8.3, Figs. 13–15): CPM and CTR per model",
		Columns: []string{"model", "CPM ($)", "impressions", "clicks", "CTR"},
	}
	for _, s := range []E3Side{r.A, r.B} {
		t.AddRow(s.Model, fmtF(s.CPM), fmtI(s.Impressions), fmtI(s.Clicks), fmtF(s.CTR))
	}
	ratio := 0.0
	if r.A.CTR > 0 {
		ratio = r.B.CTR / r.A.CTR
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("CTR lift B/A = %.2f; CPM ratio B/A = %.2f", ratio, r.B.CPM/r.A.CPM),
		"paper: B achieved higher CTR than A while keeping CPM more or less the same")
	return t
}
