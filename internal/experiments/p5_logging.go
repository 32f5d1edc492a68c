package experiments

import (
	"fmt"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/event"
	"scrub/internal/workload"
)

// P5 is the Scrub-vs-logging comparison (§1, §8.1's cost contrast): the
// same workload and the same troubleshooting question, answered (a) by
// Scrub — selection, projection and sampling on hosts, results online —
// and (b) by full-event logging plus a batch evaluation of the log.
const (
	p5Users    = 400
	p5Duration = time.Minute
	p5Seed     = 9505
	p5Query    = `select bid.user_id, count(*) from bid group by bid.user_id window 10s duration 1h @[Service in BidServers]`
)

// P5Result contrasts the two architectures on one workload + query.
type P5Result struct {
	// Scrub side.
	ScrubTuplesShipped uint64
	ScrubBytesShipped  uint64
	ScrubRows          int

	// Logging side.
	LogEventsShipped uint64
	LogBytesShipped  uint64
	LogRows          int

	// BytesRatio = logging bytes / Scrub bytes.
	BytesRatio float64
}

// P5VsLogging runs the comparison. The question asked is the spam query:
// per-user bid counts — which needs only user_id from bid events, while
// the platform also produces impression and click events that logging
// must retain because "queries are not known a priori". One run serves
// both sides: what logging ships is every event the agents recorded,
// encoded, and its answer is the exact oracle's over the recorded bids,
// which must agree with Scrub's window for window (sim.check).
func P5VsLogging() (*P5Result, error) {
	s, err := newSim(adplatform.Config{
		NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
		LineItems: adplatform.GenerateLineItems(60, p5Seed),
	}, workload.Spec{Seed: p5Seed, NumUsers: p5Users, MeanPageViewsPerMin: 3})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	wins, _, err := s.run([]string{p5Query}, p5Duration, nil)
	if err != nil {
		return nil, err
	}
	logged, err := s.check(p5Query, wins[0])
	if err != nil {
		return nil, err
	}

	res := &P5Result{}
	res.ScrubTuplesShipped, res.ScrubBytesShipped = s.shipped()
	for _, rw := range wins[0] {
		res.ScrubRows += len(rw.Rows)
	}
	var buf []byte
	err = s.scan("", func(ev *event.Event) {
		buf = event.AppendEvent(buf[:0], ev)
		res.LogEventsShipped++
		res.LogBytesShipped += uint64(len(buf))
	})
	if err != nil {
		return nil, err
	}
	for _, w := range logged {
		res.LogRows += len(w.Rows)
	}
	if res.ScrubBytesShipped > 0 {
		res.BytesRatio = float64(res.LogBytesShipped) / float64(res.ScrubBytesShipped)
	}
	return res, nil
}

// Table renders the contrast.
func (r *P5Result) Table() *Table {
	t := &Table{
		ID:      "P5",
		Title:   "Scrub vs full-event logging on the spam query (§1, §8.1 contrast)",
		Columns: []string{"metric", "Scrub", "logging"},
	}
	t.AddRow("events/tuples shipped", fmtI(int64(r.ScrubTuplesShipped)), fmtI(int64(r.LogEventsShipped)))
	t.AddRow("bytes shipped", fmtI(int64(r.ScrubBytesShipped)), fmtI(int64(r.LogBytesShipped)))
	t.AddRow("result rows", fmtI(int64(r.ScrubRows)), fmtI(int64(r.LogRows)))
	t.AddRow("answer arrives", "online, per window", "after a batch scan")
	t.Notes = append(t.Notes,
		fmt.Sprintf("logging ships %.1f× the bytes for this query", r.BytesRatio),
		"the gap widens with schema width and with queries that select narrowly — logging must retain everything because queries are not known a priori")
	return t
}
