package experiments

import (
	"fmt"
	"sort"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/workload"
)

// The §8.5 cannibalization study (Figures 18–19): line item λ has budget
// and relaxed targeting but never serves; the query joins auction and
// impression events on the request id, restricted to auctions λ
// participated in, and reports each winner's win count and average
// winning bid — revealing that λ's whole price band sits below every
// winner's. The paper's remedy, raising λ's advisory price, is the same
// run with λ priced above its rivals.
const (
	e5Users       = 800
	e5Duration    = time.Minute // the paper watched an hour
	e5LambdaID    = 4242
	e5LambdaPrice = 1.0 // λ's advisory price as found
	e5RaisedPrice = 4.0 // and raised above its rivals'
	e5Seed        = 8505
)

var e5RivalPrices = []float64{3.0, 2.6} // competitors with λ's targeting

// E5Winner is one line item's row in Figure 18.
type E5Winner struct {
	LineItemID  string
	Wins        int64
	AvgWinPrice float64
}

// E5Run is the query's answer with λ at one advisory price.
type E5Run struct {
	LambdaPrice float64
	Winners     []E5Winner // line items other than λ, by wins desc
	// LambdaWins counts λ's own wins (the complaint: zero) and
	// LambdaAvgWin their average price.
	LambdaWins   int64
	LambdaAvgWin float64
	// LambdaBandHigh is the top of λ's possible price band.
	LambdaBandHigh float64
	// MinWinnerAvg is the lowest average winning price among winners.
	MinWinnerAvg float64
}

// E5Result carries the cannibalization evidence, Before λ's price is
// raised and After.
type E5Result struct {
	Before, After E5Run
}

// E5Cannibalization runs the experiment at both of λ's prices.
func E5Cannibalization() (*E5Result, error) {
	before, err := e5Run(e5LambdaPrice)
	if err != nil {
		return nil, err
	}
	after, err := e5Run(e5RaisedPrice)
	if err != nil {
		return nil, err
	}
	return &E5Result{Before: *before, After: *after}, nil
}

func e5Run(lambdaPrice float64) (*E5Run, error) {
	lambda := &adplatform.LineItem{ID: e5LambdaID, CampaignID: 1, AdvisoryPrice: lambdaPrice}
	lambda.SetBudget(1e9)
	items := []*adplatform.LineItem{lambda}
	for i, p := range e5RivalPrices {
		rival := &adplatform.LineItem{ID: e5LambdaID + int64(i) + 1, CampaignID: 2, AdvisoryPrice: p}
		rival.SetBudget(1e9)
		items = append(items, rival)
	}

	s, err := newSim(adplatform.Config{
		NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
		LineItems:       items,
		EmitAuctions:    true,
		ExternalWinRate: 0.6,
	}, workload.Spec{
		Seed: e5Seed, NumUsers: e5Users, MeanPageViewsPerMin: 3,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	// The §8.5 query: auctions where λ participated, joined to the
	// impressions they produced, grouped by the winning line item.
	query := fmt.Sprintf(
		`select auction.winner_line_item_id, count(*), avg(auction.winner_bid_price)
		 from auction, impression
		 where auction.line_item_ids contains %d
		 group by auction.winner_line_item_id window 30s duration 1h @[all]`,
		e5LambdaID)
	wins, _, err := s.run([]string{query}, e5Duration, nil)
	if err != nil {
		return nil, err
	}
	if _, err := s.check(query, wins[0]); err != nil {
		return nil, err
	}

	res := &E5Run{LambdaPrice: lambdaPrice, LambdaBandHigh: lambdaPrice * 1.15}
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
		if id == fmt.Sprint(e5LambdaID) {
			res.LambdaWins, res.LambdaAvgWin = w.Wins, w.AvgWinPrice
			continue
		}
		res.Winners = append(res.Winners, *w)
	}
	sort.Slice(res.Winners, func(i, j int) bool { return res.Winners[i].Wins > res.Winners[j].Wins })
	for i, w := range res.Winners {
		if i == 0 || w.AvgWinPrice < res.MinWinnerAvg {
			res.MinWinnerAvg = w.AvgWinPrice
		}
	}
	return res, nil
}

// Table renders Figures 18a/18b, then the same rows with λ's price
// raised.
func (r *E5Result) Table() *Table {
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("Line-item cannibalization (§8.5, Figs. 18–19): auctions with λ=%d", e5LambdaID),
		Columns: []string{"winning line item", "wins", "avg winning bid ($)"},
	}
	for i, run := range []E5Run{r.Before, r.After} {
		if i > 0 {
			t.AddRow(fmt.Sprintf("with λ at $%.2f:", run.LambdaPrice), "", "")
		}
		for _, w := range run.Winners {
			t.AddRow(w.LineItemID, fmtI(w.Wins), fmtF(w.AvgWinPrice))
		}
		avg := "—"
		if run.LambdaWins > 0 {
			avg = fmtF(run.LambdaAvgWin)
		}
		t.AddRow(fmt.Sprintf("%d (λ)", e5LambdaID), fmtI(run.LambdaWins), avg)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("λ's price band tops out at $%.2f; the lowest winner average is $%.2f — λ is priced out of every auction it enters",
			r.Before.LambdaBandHigh, r.Before.MinWinnerAvg),
		"paper: bumping λ's advisory price immediately started delivery")
	return t
}
