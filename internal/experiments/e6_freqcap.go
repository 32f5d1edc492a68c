package experiments

import (
	"fmt"
	"sort"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/workload"
)

// The §8.6 incorrectly-set-field study: a campaign capped at one ad per
// user per day serves some users far more often. The cause in the paper
// was erroneous input data corrupting profile frequency state, not a code
// bug; the experiment injects exactly that — an external feed periodically
// clobbers some users' serve counts — and uses Scrub to find the
// over-served users and the corrupt counts.
const (
	e6Users        = 400
	e6CorruptUsers = 4
	e6Duration     = 2 * time.Minute
	e6FrequencyCap = 1
	e6LineItemID   = 5151
	e6Seed         = 8606
)

// E6User is one over-served user found by the query.
type E6User struct {
	UserID      string
	Impressions int64
	// MaxServeCount is the highest serve_count field observed in the
	// user's impression events — for corrupt users it stays below the cap
	// (the feed's clobbered counts are negative) while impressions pile up.
	MaxServeCount int64
}

// E6Result carries the diagnosis.
type E6Result struct {
	// OverServed: users whose impression count for the capped line item
	// exceeded the frequency cap, sorted by impressions desc.
	OverServed []E6User
	// CorruptSet is the ground-truth corrupted user ids (for
	// verification).
	CorruptSet map[string]bool
	// HealthyMax is the maximum impressions any healthy user received.
	HealthyMax int64
}

// E6FrequencyCap runs the experiment.
func E6FrequencyCap() (*E6Result, error) {
	capped := &adplatform.LineItem{
		ID: e6LineItemID, CampaignID: 3, AdvisoryPrice: 3.0,
		FrequencyCap: e6FrequencyCap,
	}
	capped.SetBudget(1e9)
	items := append([]*adplatform.LineItem{capped}, adplatform.GenerateLineItems(20, e6Seed)...)

	s, err := newSim(adplatform.Config{
		NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
		LineItems:       items,
		ExternalWinRate: 1.0, // every bid serves: the cap is the only brake
	}, workload.Spec{
		Seed: e6Seed, NumUsers: e6Users, MeanPageViewsPerMin: 4,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	// Ground truth: the corrupt feed hits the first e6CorruptUsers ids.
	res := &E6Result{CorruptSet: make(map[string]bool)}
	corrupt := make([]int64, 0, e6CorruptUsers)
	for u := int64(0); u < e6CorruptUsers; u++ {
		corrupt = append(corrupt, u)
		res.CorruptSet[fmt.Sprint(u)] = true
	}

	// The troubleshooter's query: impressions of the capped line item per
	// user — users over the cap are the anomaly. serve_count rides along
	// as evidence of the corrupt profile state.
	query := fmt.Sprintf(
		`select impression.user_id, count(*), max(impression.serve_count) from impression where impression.line_item_id = %d group by impression.user_id window 10m duration 1h @[Service in PresentationServers]`,
		e6LineItemID)
	n := 0
	wins, _, err := s.run([]string{query}, e6Duration, func(r adplatform.BidRequest) {
		if n++; n%50 == 0 {
			// The erroneous input feed: periodically clobbers the corrupt
			// users' serve counts back to zero-ish state.
			for _, u := range corrupt {
				s.Store.CorruptServeCounts(u, map[int64]int{e6LineItemID: -1000}, time.Unix(0, r.TimeNanos))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if _, err := s.check(query, wins[0]); err != nil {
		return nil, err
	}

	perUser := make(map[string]*E6User)
	for _, rw := range wins[0] {
		for _, row := range rw.Rows {
			id := row[0].String()
			n, _ := row[1].AsInt()
			maxServe, _ := row[2].AsInt()
			u := perUser[id]
			if u == nil {
				u = &E6User{UserID: id, MaxServeCount: maxServe}
				perUser[id] = u
			}
			u.Impressions += n
			u.MaxServeCount = max(u.MaxServeCount, maxServe)
		}
	}
	for _, u := range perUser {
		if u.Impressions > e6FrequencyCap {
			res.OverServed = append(res.OverServed, *u)
		} else if u.Impressions > res.HealthyMax {
			res.HealthyMax = u.Impressions
		}
	}
	sort.Slice(res.OverServed, func(i, j int) bool {
		return res.OverServed[i].Impressions > res.OverServed[j].Impressions
	})
	return res, nil
}

// Table renders the over-served users.
func (r *E6Result) Table() *Table {
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("Incorrectly set field (§8.6): users over the frequency cap (%d/day)", e6FrequencyCap),
		Columns: []string{"user", "impressions", "max serve_count seen", "corrupt profile?"},
	}
	for _, u := range r.OverServed {
		t.AddRow(u.UserID, fmtI(u.Impressions), fmtI(u.MaxServeCount),
			fmt.Sprint(r.CorruptSet[u.UserID]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("healthy users max impressions: %d (cap %d)", r.HealthyMax, e6FrequencyCap),
		"paper: the root cause was erroneous input data corrupting profile frequency state — found by querying, not by code changes")
	return t
}
