package experiments

import (
	"fmt"
	"sort"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/workload"
)

// E6Config parametrizes the §8.6 incorrectly-set-field study: a campaign
// capped at one ad per user per day serves some users far more often.
// The cause in the paper was erroneous input data corrupting profile
// frequency state, not a code bug; the experiment injects exactly that —
// an external feed periodically clobbers some users' serve counts — and
// uses Scrub to find the over-served users and the corrupt counts.
type E6Config struct {
	Users        int           // default 600
	CorruptUsers int           // default 4
	Duration     time.Duration // default 2m
	FrequencyCap int           // default 1
	LineItemID   int64         // default 5151
	Seed         int64
}

func (c *E6Config) fillDefaults() {
	if c.Users == 0 {
		c.Users = 600
	}
	if c.CorruptUsers == 0 {
		c.CorruptUsers = 4
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Minute
	}
	if c.FrequencyCap == 0 {
		c.FrequencyCap = 1
	}
	if c.LineItemID == 0 {
		c.LineItemID = 5151
	}
	if c.Seed == 0 {
		c.Seed = 8606
	}
}

// E6User is one over-served user found by the query.
type E6User struct {
	UserID      string
	Impressions int64
	// MaxServeCount is the highest serve_count field observed in the
	// user's impression events — for corrupt users this stays at or
	// below the cap (or jumps erratically) while impressions pile up.
	MaxServeCount int64
}

// E6Result carries the diagnosis.
type E6Result struct {
	Config E6Config
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
func E6FrequencyCap(cfg E6Config) (*E6Result, error) {
	cfg.fillDefaults()

	capped := &adplatform.LineItem{
		ID: cfg.LineItemID, CampaignID: 3, AdvisoryPrice: 3.0,
		FrequencyCap: cfg.FrequencyCap,
	}
	capped.SetBudget(1e9)
	items := append([]*adplatform.LineItem{capped}, adplatform.GenerateLineItems(20, cfg.Seed)...)

	platform, gen, err := newSim(adplatform.Config{
		NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
		LineItems:       items,
		ExternalWinRate: 1.0, // every bid serves: the cap is the only brake
	}, workload.Spec{
		Seed: cfg.Seed, NumUsers: cfg.Users, MeanPageViewsPerMin: 4,
	})
	if err != nil {
		return nil, err
	}
	defer platform.Close()

	// Ground truth: the corrupt feed hits the first CorruptUsers ids.
	res := &E6Result{Config: cfg, CorruptSet: make(map[string]bool)}
	corrupt := make([]int64, 0, cfg.CorruptUsers)
	for u := int64(0); u < int64(cfg.CorruptUsers); u++ {
		corrupt = append(corrupt, u)
		res.CorruptSet[fmt.Sprint(u)] = true
	}

	// The troubleshooter's query: impressions of the capped line item per
	// user — users over the cap are the anomaly. serve_count rides along
	// as evidence of the corrupt profile state.
	query := fmt.Sprintf(
		`select impression.user_id, count(*), max(impression.serve_count) from impression where impression.line_item_id = %d group by impression.user_id window 10m duration 1h @[Service in PresentationServers]`,
		cfg.LineItemID)
	wins, err := RunScenario(platform.Cluster, []string{query}, func() {
		n := 0
		drive(platform, gen, cfg.Duration, func(r adplatform.BidRequest) {
			platform.Process(r)
			n++
			if n%50 == 0 {
				// The erroneous input feed: periodically clobbers the
				// corrupt users' serve counts back to zero-ish state.
				for _, u := range corrupt {
					platform.Store.CorruptServeCounts(u, map[int64]int{int64(cfg.LineItemID): -1000}, time.Unix(0, r.TimeNanos))
				}
			}
		})
	})
	if err != nil {
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
				u = &E6User{UserID: id}
				perUser[id] = u
			}
			u.Impressions += n
			if maxServe > u.MaxServeCount {
				u.MaxServeCount = maxServe
			}
		}
	}
	for _, u := range perUser {
		if u.Impressions > int64(cfg.FrequencyCap) {
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
		Title:   fmt.Sprintf("Incorrectly set field (§8.6): users over the frequency cap (%d/day)", r.Config.FrequencyCap),
		Columns: []string{"user", "impressions", "max serve_count seen", "corrupt profile?"},
	}
	for _, u := range r.OverServed {
		t.AddRow(u.UserID, fmtI(u.Impressions), fmtI(u.MaxServeCount),
			fmt.Sprint(r.CorruptSet[u.UserID]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("healthy users max impressions: %d (cap %d)", r.HealthyMax, r.Config.FrequencyCap),
		"paper: the root cause was erroneous input data corrupting profile frequency state — found by querying, not by code changes")
	return t
}
