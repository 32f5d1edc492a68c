package experiments

import (
	"fmt"
	"strings"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/transport"
	"scrub/internal/workload"
)

// The §8.3 A/B test reproduction (Figures 13–15): model A on half the
// machines, model B on the other half; Scrub queries compute each side's
// CPM (1000·AVG(impression.cost)) and CTR (clicks/impressions) by
// targeting the host lists.
const (
	e3ServersPerSide = 2 // ad+presentation servers per model
	e3Users          = 2000
	e3Duration       = 2 * time.Minute
	e3LineItemID     = 7777 // the A/B'd line item
	e3Seed           = 8303
)

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
	A, B E3Side
}

// E3ABTesting runs the experiment.
func E3ABTesting() (*E3Result, error) {
	n := e3ServersPerSide * 2

	// One open line item under test plus background inventory.
	li := &adplatform.LineItem{ID: e3LineItemID, CampaignID: 99, AdvisoryPrice: 2.0}
	li.SetBudget(1e9)
	items := append([]*adplatform.LineItem{li}, adplatform.GenerateLineItems(40, e3Seed)...)

	s, err := newSim(adplatform.Config{
		NumBidServers: 2, NumAdServers: n, NumPresentationServers: n,
		LineItems: items,
		ModelForAdServer: func(i int) adplatform.TargetingModel {
			if i < e3ServersPerSide {
				return adplatform.BaselineModel{}
			}
			return adplatform.ImprovedModel{}
		},
		ExternalWinRate: 0.5,
	}, workload.Spec{
		Seed: e3Seed, NumUsers: e3Users, MeanPageViewsPerMin: 4,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	hostList := func(model string) string {
		hosts := s.PresentationHostsForModel(model)
		quoted := make([]string, len(hosts))
		for i, h := range hosts {
			quoted[i] = fmt.Sprintf("%q", h)
		}
		return strings.Join(quoted, ", ")
	}
	// Figure 13 (CPM) and Figure 14 (CTR counts) query templates, one
	// per model, targeting that model's machines. The window spans the
	// whole run — the paper computes daily values. Naming hosts puts them
	// beyond check: the record does not say which host logged an event.
	queries := []string{
		fmt.Sprintf(`select 1000*avg(impression.cost) from impression where impression.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, e3LineItemID, hostList("A")),
		fmt.Sprintf(`select 1000*avg(impression.cost) from impression where impression.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, e3LineItemID, hostList("B")),
		fmt.Sprintf(`select count(*) from impression where impression.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, e3LineItemID, hostList("A")),
		fmt.Sprintf(`select count(*) from impression where impression.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, e3LineItemID, hostList("B")),
		fmt.Sprintf(`select count(*) from click where click.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, e3LineItemID, hostList("A")),
		fmt.Sprintf(`select count(*) from click where click.line_item_id = %d window 30m duration 1h @[Servers in (%s)]`, e3LineItemID, hostList("B")),
	}
	wins, _, err := s.run(queries, e3Duration, nil)
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

	res := &E3Result{}
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
