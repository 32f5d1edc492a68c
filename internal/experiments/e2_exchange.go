package experiments

import (
	"fmt"
	"sort"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/workload"
)

// E2Config parametrizes the §8.2 new-exchange validation (Figures 11–12):
// impressions per exchange over time, sampled at 10% of PresentationServers
// and 10% of events, with a new exchange coming online mid-run.
type E2Config struct {
	PresentationServers int           // default 10 (so 10% host sampling = 1)
	Users               int           // default 2000
	Duration            time.Duration // default 4m
	EnableAt            time.Duration // new exchange onboarding; default half-run
	Window              time.Duration // default 10s
	SampleHostsPct      float64       // default 10
	SampleEventsPct     float64       // default 10
	Seed                int64
}

func (c *E2Config) fillDefaults() {
	if c.PresentationServers == 0 {
		c.PresentationServers = 10
	}
	if c.Users == 0 {
		c.Users = 2000
	}
	if c.Duration == 0 {
		c.Duration = 4 * time.Minute
	}
	if c.EnableAt == 0 {
		c.EnableAt = c.Duration / 2
	}
	if c.Window == 0 {
		c.Window = 10 * time.Second
	}
	if c.SampleHostsPct == 0 {
		c.SampleHostsPct = 10
	}
	if c.SampleEventsPct == 0 {
		c.SampleEventsPct = 10
	}
	if c.Seed == 0 {
		c.Seed = 8202
	}
}

// E2Point is one (window, exchange) series sample.
type E2Point struct {
	WindowStart int64
	ExchangeID  string
	Count       int64 // scaled-up estimate
}

// E2Result carries the per-exchange impression series.
type E2Result struct {
	Config     E2Config
	Series     []E2Point
	ByExchange map[string][]E2Point
	// EnableBoundary is the virtual nanosecond when the new exchange
	// (id 4) enabled.
	EnableBoundary int64
	Approx         bool
}

// E2ExchangeValidation runs the experiment.
func E2ExchangeValidation(cfg E2Config) (*E2Result, error) {
	cfg.fillDefaults()
	// Durable budgets: this experiment measures exchange integration, not
	// budget pacing — exhausted line items would silently starve the
	// impression stream mid-run.
	items := adplatform.GenerateLineItems(80, cfg.Seed)
	for _, li := range items {
		li.SetBudget(1e9)
	}
	platform, gen, err := newSim(adplatform.Config{
		NumBidServers: 4, NumAdServers: 4,
		NumPresentationServers: cfg.PresentationServers,
		LineItems:              items,
		ExternalWinRate:        0.25, // enough impressions to see the ramp through 10% sampling
	}, workload.Spec{
		Seed: cfg.Seed, NumUsers: cfg.Users, MeanPageViewsPerMin: 4,
		Exchanges: []workload.Exchange{
			{ID: 1, Weight: 1},
			{ID: 2, Weight: 1},
			{ID: 3, Weight: 1},
			{ID: 4, Weight: 2, EnableAt: cfg.EnableAt}, // the newcomer
		},
	})
	if err != nil {
		return nil, err
	}
	defer platform.Close()

	// The paper's Figure 11 query.
	query := fmt.Sprintf(
		`select impression.exchange_id, count(*) from impression group by impression.exchange_id window %s duration 1h @[Service in PresentationServers and DC = DC1] sample hosts %g%% events %g%%`,
		cfg.Window, cfg.SampleHostsPct, cfg.SampleEventsPct)
	wins, err := RunScenario(platform.Cluster, []string{query}, func() {
		drive(platform, gen, cfg.Duration, func(r adplatform.BidRequest) { platform.Process(r) })
	})
	if err != nil {
		return nil, err
	}

	res := &E2Result{
		Config:         cfg,
		ByExchange:     make(map[string][]E2Point),
		EnableBoundary: epoch.Add(cfg.EnableAt).UnixNano(),
	}
	for _, rw := range wins[0] {
		res.Approx = res.Approx || rw.Approx
		for _, row := range rw.Rows {
			n, _ := row[1].AsInt()
			p := E2Point{WindowStart: rw.WindowStart, ExchangeID: row[0].String(), Count: n}
			res.Series = append(res.Series, p)
			res.ByExchange[p.ExchangeID] = append(res.ByExchange[p.ExchangeID], p)
		}
	}
	sort.Slice(res.Series, func(i, j int) bool {
		if res.Series[i].WindowStart != res.Series[j].WindowStart {
			return res.Series[i].WindowStart < res.Series[j].WindowStart
		}
		return res.Series[i].ExchangeID < res.Series[j].ExchangeID
	})
	return res, nil
}

// CountBeforeAfter sums an exchange's estimated impressions in windows
// entirely before vs entirely after the onboarding boundary. Windows
// straddling the boundary (window alignment is epoch-based, the
// onboarding moment is not) belong to neither side.
func (r *E2Result) CountBeforeAfter(exchange string) (before, after int64) {
	win := int64(r.Config.Window)
	for _, p := range r.ByExchange[exchange] {
		switch {
		case p.WindowStart+win <= r.EnableBoundary:
			before += p.Count
		case p.WindowStart >= r.EnableBoundary:
			after += p.Count
		}
	}
	return
}

// Table renders the Figure-12 series (bucketed into phases for text
// output).
func (r *E2Result) Table() *Table {
	t := &Table{
		ID:      "E2",
		Title:   "New-exchange validation (§8.2, Figs. 11–12): est. impressions per exchange",
		Columns: []string{"exchange", "before onboarding", "after onboarding"},
	}
	var exchanges []string
	for e := range r.ByExchange {
		exchanges = append(exchanges, e)
	}
	sort.Strings(exchanges)
	for _, e := range exchanges {
		b, a := r.CountBeforeAfter(e)
		t.AddRow(e, fmtI(b), fmtI(a))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("sampling: hosts %g%%, events %g%% (approx=%v); counts are scaled estimates",
			r.Config.SampleHostsPct, r.Config.SampleEventsPct, r.Approx),
		"paper: exchange D shows zero impressions until onboarding, then a healthy ramp — realtime validation while in production")
	return t
}
