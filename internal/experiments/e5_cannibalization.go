package experiments

import (
	"fmt"
	"sort"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/workload"
)

// E5Config parametrizes the §8.5 cannibalization study (Figures 18–19):
// line item λ has budget and relaxed targeting but never serves; the
// query joins auction and impression events on the request id, restricted
// to auctions λ participated in, and reports each winner's win count and
// average winning bid — revealing that λ's whole price band sits below
// every winner's.
type E5Config struct {
	Users    int           // default 1200
	Duration time.Duration // paper: 1 hour; default 2m (scaled)
	// LambdaID and LambdaPrice configure the victim.
	LambdaID    int64   // default 4242
	LambdaPrice float64 // default 1.0
	// RivalPrices are the advisory prices of competitors with identical
	// targeting; default {3.0, 2.6}.
	RivalPrices []float64
	Seed        int64
}

func (c *E5Config) fillDefaults() {
	if c.Users == 0 {
		c.Users = 1200
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Minute
	}
	if c.LambdaID == 0 {
		c.LambdaID = 4242
	}
	if c.LambdaPrice == 0 {
		c.LambdaPrice = 1.0
	}
	if len(c.RivalPrices) == 0 {
		c.RivalPrices = []float64{3.0, 2.6}
	}
	if c.Seed == 0 {
		c.Seed = 8505
	}
}

// E5Winner is one line item's row in Figure 18.
type E5Winner struct {
	LineItemID  string
	Wins        int64
	AvgWinPrice float64
}

// E5Result carries the cannibalization evidence.
type E5Result struct {
	Config  E5Config
	Winners []E5Winner // sorted by wins desc
	// LambdaWins counts λ's own wins (the complaint: zero).
	LambdaWins int64
	// LambdaBandHigh is the top of λ's possible price band.
	LambdaBandHigh float64
	// MinWinnerAvg is the lowest average winning price among winners.
	MinWinnerAvg float64
}

// E5Cannibalization runs the experiment.
func E5Cannibalization(cfg E5Config) (*E5Result, error) {
	cfg.fillDefaults()

	lambda := &adplatform.LineItem{ID: cfg.LambdaID, CampaignID: 1, AdvisoryPrice: cfg.LambdaPrice}
	lambda.SetBudget(1e9)
	items := []*adplatform.LineItem{lambda}
	for i, p := range cfg.RivalPrices {
		rival := &adplatform.LineItem{ID: cfg.LambdaID + int64(i) + 1, CampaignID: 2, AdvisoryPrice: p}
		rival.SetBudget(1e9)
		items = append(items, rival)
	}

	platform, gen, err := newSim(adplatform.Config{
		NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
		LineItems:       items,
		EmitAuctions:    true,
		ExternalWinRate: 0.6,
	}, workload.Spec{
		Seed: cfg.Seed, NumUsers: cfg.Users, MeanPageViewsPerMin: 3,
	})
	if err != nil {
		return nil, err
	}
	defer platform.Close()

	// The §8.5 query: auctions where λ participated, joined to the
	// impressions they produced, grouped by the winning line item.
	query := fmt.Sprintf(
		`select auction.winner_line_item_id, count(*), avg(auction.winner_bid_price)
		 from auction, impression
		 where auction.line_item_ids contains %d
		 group by auction.winner_line_item_id window 30s duration 1h @[all]`,
		cfg.LambdaID)
	wins, err := RunScenario(platform.Cluster, []string{query}, func() {
		drive(platform, gen, cfg.Duration, func(r adplatform.BidRequest) { platform.Process(r) })
	})
	if err != nil {
		return nil, err
	}

	res := &E5Result{Config: cfg, LambdaBandHigh: cfg.LambdaPrice * 1.15}
	agg := make(map[string]*E5Winner)
	sums := make(map[string]float64)
	for _, rw := range wins[0] {
		for _, row := range rw.Rows {
			id := row[0].String()
			n, _ := row[1].AsInt()
			avg, _ := row[2].AsFloat()
			w := agg[id]
			if w == nil {
				w = &E5Winner{LineItemID: id}
				agg[id] = w
			}
			w.Wins += n
			sums[id] += avg * float64(n)
		}
	}
	for id, w := range agg {
		if w.Wins > 0 {
			w.AvgWinPrice = sums[id] / float64(w.Wins)
		}
		if id == fmt.Sprint(cfg.LambdaID) {
			res.LambdaWins = w.Wins
			continue
		}
		res.Winners = append(res.Winners, *w)
	}
	sort.Slice(res.Winners, func(i, j int) bool { return res.Winners[i].Wins > res.Winners[j].Wins })
	res.MinWinnerAvg = 0
	for i, w := range res.Winners {
		if i == 0 || w.AvgWinPrice < res.MinWinnerAvg {
			res.MinWinnerAvg = w.AvgWinPrice
		}
	}
	return res, nil
}

// Table renders Figures 18a/18b.
func (r *E5Result) Table() *Table {
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("Line-item cannibalization (§8.5, Figs. 18–19): auctions with λ=%d", r.Config.LambdaID),
		Columns: []string{"winning line item", "wins", "avg winning bid ($)"},
	}
	for _, w := range r.Winners {
		t.AddRow(w.LineItemID, fmtI(w.Wins), fmtF(w.AvgWinPrice))
	}
	t.AddRow(fmt.Sprintf("%d (λ)", r.Config.LambdaID), fmtI(r.LambdaWins), "—")
	t.Notes = append(t.Notes,
		fmt.Sprintf("λ's price band tops out at $%.2f; the lowest winner average is $%.2f — λ is priced out of every auction it enters",
			r.LambdaBandHigh, r.MinWinnerAvg),
		"paper: bumping λ's advisory price immediately started delivery")
	return t
}
