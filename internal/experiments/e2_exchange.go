package experiments

import (
	"fmt"
	"sort"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/workload"
)

// The §8.2 new-exchange validation (Figures 11–12): impressions per
// exchange over time, sampled at 10% of PresentationServers and 10% of
// events, with a new exchange coming online mid-run.
const (
	e2PresentationServers = 10 // so 10% host sampling is one server
	e2Users               = 1200
	e2Duration            = 2 * time.Minute
	e2EnableAt            = time.Minute // the new exchange's onboarding, half-run
	e2Window              = 10 * time.Second
	e2SampleHostsPct      = 10.0
	e2SampleEventsPct     = 10.0
	e2Seed                = 8202
)

// E2Point is one (window, exchange) series sample.
type E2Point struct {
	WindowStart int64
	ExchangeID  string
	Count       int64 // scaled-up estimate
}

// E2Result carries the per-exchange impression series.
type E2Result struct {
	ByExchange map[string][]E2Point
	// EnableBoundary is the virtual nanosecond when the new exchange
	// (id 4) enabled.
	EnableBoundary int64
	Approx         bool
}

// E2ExchangeValidation runs the experiment.
func E2ExchangeValidation() (*E2Result, error) {
	// Durable budgets: this experiment measures exchange integration, not
	// budget pacing — exhausted line items would silently starve the
	// impression stream mid-run.
	items := adplatform.GenerateLineItems(80, e2Seed)
	for _, li := range items {
		li.SetBudget(1e9)
	}
	s, err := newSim(adplatform.Config{
		NumBidServers: 4, NumAdServers: 4,
		NumPresentationServers: e2PresentationServers,
		LineItems:              items,
		ExternalWinRate:        0.25, // enough impressions to see the ramp through 10% sampling
	}, workload.Spec{
		Seed: e2Seed, NumUsers: e2Users, MeanPageViewsPerMin: 4,
		Exchanges: []workload.Exchange{
			{ID: 1, Weight: 1},
			{ID: 2, Weight: 1},
			{ID: 3, Weight: 1},
			{ID: 4, Weight: 2, EnableAt: e2EnableAt}, // the newcomer
		},
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	// The paper's Figure 11 query. It samples, so check does not hold it
	// to the exact oracle; difftest's coverage contract holds its shape.
	query := fmt.Sprintf(
		`select impression.exchange_id, count(*) from impression group by impression.exchange_id window %s duration 1h @[Service in PresentationServers and DC = DC1] sample hosts %g%% events %g%%`,
		e2Window, e2SampleHostsPct, e2SampleEventsPct)
	wins, _, err := s.run([]string{query}, e2Duration, nil)
	if err != nil {
		return nil, err
	}

	res := &E2Result{
		ByExchange:     make(map[string][]E2Point),
		EnableBoundary: epoch.Add(e2EnableAt).UnixNano(),
	}
	for _, rw := range wins[0] {
		res.Approx = res.Approx || rw.Approx
		for _, row := range rw.Rows {
			n, _ := row[1].AsInt()
			p := E2Point{WindowStart: rw.WindowStart, ExchangeID: row[0].String(), Count: n}
			res.ByExchange[p.ExchangeID] = append(res.ByExchange[p.ExchangeID], p)
		}
	}
	return res, nil
}

// CountBeforeAfter sums an exchange's estimated impressions in windows
// entirely before vs entirely after the onboarding boundary. Windows
// straddling the boundary (window alignment is epoch-based, the
// onboarding moment is not) belong to neither side.
func (r *E2Result) CountBeforeAfter(exchange string) (before, after int64) {
	win := int64(e2Window)
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
			e2SampleHostsPct, e2SampleEventsPct, r.Approx),
		"paper: exchange D shows zero impressions until onboarding, then a healthy ramp — realtime validation while in production")
	return t
}
