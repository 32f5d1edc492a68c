package experiments

import (
	"fmt"
	"sort"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/workload"
)

// E1Config parametrizes the §8.1 spam-detection reproduction (Figures 9
// and 10): COUNT(*) of bid requests per user in 10-second tumbling
// windows on one BidServer, with two bots hidden in a human population.
type E1Config struct {
	Users     int           // human population; default 1500
	Duration  time.Duration // virtual run; paper: 20 minutes; default 5m
	Window    time.Duration // default 10s (the paper's)
	Bots      []workload.BotSpec
	LineItems int
	Seed      int64
}

func (c *E1Config) fillDefaults() {
	if c.Users == 0 {
		c.Users = 1500
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Minute
	}
	if c.Window == 0 {
		c.Window = 10 * time.Second
	}
	if c.LineItems == 0 {
		c.LineItems = 100
	}
	if len(c.Bots) == 0 {
		c.Bots = []workload.BotSpec{
			{UserID: 900001, BatchSize: 400, Period: 20 * time.Second},
			{UserID: 900002, BatchSize: 250, Period: 30 * time.Second, StartAt: 45 * time.Second},
		}
	}
	if c.Seed == 0 {
		c.Seed = 8101
	}
}

// E1Result carries the per-user-per-window request-count distribution.
type E1Result struct {
	Config E1Config
	// Histogram buckets requests-per-user-per-window → user-window count.
	Histogram map[int64]int64
	// MaxPerUser maps user → max requests in any window.
	MaxPerUser map[string]int64
	// Detected holds users flagged as bots (max window count over
	// threshold), sorted.
	Detected  []string
	Threshold int64
	Windows   int
}

// E1SpamDetection runs the experiment.
func E1SpamDetection(cfg E1Config) (*E1Result, error) {
	cfg.fillDefaults()
	// Durable budgets: bid events are the measured signal; exhausted
	// budgets would stop bidding (and hence the signal) mid-run.
	items := adplatform.GenerateLineItems(cfg.LineItems, cfg.Seed)
	for _, li := range items {
		li.SetBudget(1e9)
	}
	platform, gen, err := newSim(adplatform.Config{
		NumBidServers: 1, NumAdServers: 2, NumPresentationServers: 2,
		LineItems: items,
	}, workload.Spec{
		Seed: cfg.Seed, NumUsers: cfg.Users, MeanPageViewsPerMin: 2,
		Bots: cfg.Bots,
	})
	if err != nil {
		return nil, err
	}
	defer platform.Close()

	// The paper's Figure 9 query, on one BidServer.
	query := fmt.Sprintf(
		`select bid.user_id, count(*) from bid group by bid.user_id window %s duration 1h @[Service in BidServers and Server = "bid-DC1-000"]`,
		cfg.Window)
	wins, err := RunScenario(platform.Cluster, []string{query}, func() {
		drive(platform, gen, cfg.Duration, func(r adplatform.BidRequest) { platform.Process(r) })
	})
	if err != nil {
		return nil, err
	}

	res := &E1Result{
		Config:     cfg,
		Histogram:  make(map[int64]int64),
		MaxPerUser: make(map[string]int64),
		Windows:    len(wins[0]),
	}
	for _, rw := range wins[0] {
		for _, row := range rw.Rows {
			user := row[0].String()
			n, _ := row[1].AsInt()
			res.Histogram[n]++
			if n > res.MaxPerUser[user] {
				res.MaxPerUser[user] = n
			}
		}
	}
	// Threshold: humans view pages at a few per minute with ≤ a handful
	// of slots each; anything over 50 requests in 10 seconds is scripted.
	res.Threshold = 50
	for user, max := range res.MaxPerUser {
		if max > res.Threshold {
			res.Detected = append(res.Detected, user)
		}
	}
	sort.Strings(res.Detected)
	return res, nil
}

// Table renders the Figure-10 distribution plus the flagged bots.
func (r *E1Result) Table() *Table {
	t := &Table{
		ID:      "E1",
		Title:   "Spam detection (§8.1, Figs. 9–10): bid requests per user per window",
		Columns: []string{"requests/window", "user-windows"},
	}
	var keys []int64
	for k := range r.Histogram {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// Bucket the tail for readability.
	buckets := []struct {
		label  string
		lo, hi int64
	}{
		{"1", 1, 1}, {"2", 2, 2}, {"3", 3, 3}, {"4-5", 4, 5},
		{"6-10", 6, 10}, {"11-50", 11, 50}, {">50 (bots)", 51, 1 << 60},
	}
	for _, b := range buckets {
		var n int64
		for _, k := range keys {
			if k >= b.lo && k <= b.hi {
				n += r.Histogram[k]
			}
		}
		t.AddRow(b.label, fmtI(n))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("windows emitted: %d; users flagged as bots (> %d req/window): %v",
			r.Windows, r.Threshold, r.Detected),
		"paper: ~half of users issue 1 request/window, counts decay exponentially, 2 bots stand out with large frequent batches")
	return t
}
