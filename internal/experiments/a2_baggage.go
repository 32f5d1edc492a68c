package experiments

import (
	"fmt"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/stats"
	"scrub/internal/workload"
)

// A2 is the baggage-propagation comparison the paper makes in §8.4:
// Pivot-Tracing-style causal baggage would have to carry every exclusion
// from the AdServers back through the request path — "the baggage would
// have to include all these exclusions" — on every request, whether or not
// anyone is troubleshooting. Scrub ships exclusion data only while a query
// is active, already filtered and projected.
//
// The experiment runs the same bidding workload and measures:
//   - baggage bytes per request (every exclusion event the request logged,
//     serialized — what the request would carry);
//   - Scrub bytes per request while the §8.4 query is active (projected
//     exclusion tuples for one exchange), and zero when it is not.
const (
	a2Users     = 300
	a2Duration  = time.Minute
	a2LineItems = 80 // exclusions per request scale with this
	a2Seed      = 9808
)

// A2Result carries the comparison.
type A2Result struct {
	Requests int

	// Baggage side: per-request payload statistics.
	BaggageMeanBytes float64
	BaggageP99Bytes  float64
	BaggageTotal     uint64

	// Scrub side: bytes shipped for the §8.4 exclusion query while it ran.
	ScrubTuples uint64
	ScrubBytes  uint64

	// Ratio of always-on baggage volume to on-demand Scrub volume.
	Ratio float64
}

// A2BaggageVsOnDemand runs the comparison.
func A2BaggageVsOnDemand() (*A2Result, error) {
	s, err := newSim(adplatform.Config{
		NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
		LineItems:      adplatform.GenerateLineItems(a2LineItems, a2Seed),
		EmitExclusions: true,
		Agent:          host.Config{QueueSize: 1 << 18, BatchSize: 1024},
	}, workload.Spec{
		Seed: a2Seed, NumUsers: a2Users, MeanPageViewsPerMin: 3,
		Exchanges: []workload.Exchange{{ID: 1, Weight: 1}, {ID: 2, Weight: 1}},
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	// The §8.4 on-demand query (selection on one exchange, projection to
	// the reason field) — Scrub's cost while troubleshooting.
	query := `select exclusion.reason, count(*) from bid, exclusion where bid.exchange_id = 2 group by exclusion.reason window 30s duration 1h @[all]`
	wins, requests, err := s.run([]string{query}, a2Duration, nil)
	if err != nil {
		return nil, err
	}
	if _, err := s.check(query, wins[0]); err != nil {
		return nil, err
	}
	res := &A2Result{Requests: requests}

	// The baggage a request would carry is the exclusion events it logged,
	// serialized; a request that logged none carries nothing.
	perRequest := make(map[uint64]uint64)
	var buf []byte
	err = s.scan(adplatform.ExclusionEventSchema.Name(), func(ev *event.Event) {
		buf = event.AppendEvent(buf[:0], ev)
		perRequest[ev.RequestID] += uint64(len(buf))
	})
	if err != nil {
		return nil, err
	}
	samples := make([]float64, res.Requests)
	i := 0
	for _, n := range perRequest {
		samples[i] = float64(n)
		res.BaggageTotal += n
		i++
	}
	res.BaggageMeanBytes = float64(res.BaggageTotal) / float64(res.Requests)
	res.BaggageP99Bytes = stats.Percentile(samples, 99)

	res.ScrubTuples, res.ScrubBytes = s.shipped()
	if res.ScrubBytes > 0 {
		res.Ratio = float64(res.BaggageTotal) / float64(res.ScrubBytes)
	}
	return res, nil
}

// Table renders the comparison.
func (r *A2Result) Table() *Table {
	t := &Table{
		ID:      "A2",
		Title:   "Baggage propagation vs Scrub on-demand (§8.4, §10 contrast)",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("requests", fmtI(int64(r.Requests)))
	t.AddRow("baggage bytes/request (mean)", fmtF(r.BaggageMeanBytes))
	t.AddRow("baggage bytes/request (p99)", fmtF(r.BaggageP99Bytes))
	t.AddRow("baggage total (always-on)", fmtI(int64(r.BaggageTotal)))
	t.AddRow("Scrub tuples shipped (query active)", fmtI(int64(r.ScrubTuples)))
	t.AddRow("Scrub bytes shipped (query active)", fmtI(int64(r.ScrubBytes)))
	t.AddRow("byte ratio while the query runs", fmt.Sprintf("%.1f×", r.Ratio))
	// The decisive number: baggage is always on, Scrub only runs while a
	// troubleshooter is looking. At a 1% troubleshooting duty cycle the
	// amortized gap is two orders of magnitude wider.
	t.AddRow("byte ratio at 1% troubleshooting duty cycle", fmt.Sprintf("%.0f×", r.Ratio*100))
	t.Notes = append(t.Notes,
		"baggage rides on every request forever; Scrub pays only while a query runs, and only for the selected exchange and projected field",
		"with production line-item counts (tens of thousands of exclusions per request, §8.4) the baggage per request reaches megabytes — inside a 20ms transaction")
	return t
}
