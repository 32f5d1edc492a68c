package experiments

import (
	"time"

	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/transport"
)

// A1 ablates Scrub's defining execution choice (paper §4, §6):
// joins/group-bys/aggregations run at ScrubCentral, never on the hosts.
// The ablation runs the spam query's host-side work both ways on one host:
//
//   - Scrub: selection → projection → enqueue (ship raw tuples);
//   - ablated: maintain the group-by aggregation in the host process
//     (what "push the query to the data" would do), shipping only window
//     summaries.
//
// The ablated variant ships less, but its per-event cost and its memory
// footprint grow with group cardinality — unbounded, query-dependent
// state on a machine with an SLO. Scrub's host cost is flat by design.
// A1 is a timing experiment, so it reads the wall clock.
const a1Events = 500_000 // per measurement

var a1Cardinalities = []int{100, 10000, 250000} // distinct users

// A1Point is one measurement.
type A1Point struct {
	Cardinality       int
	ScrubNsPerEvent   float64
	AblatedNsPerEvent float64
	// AblatedGroups is the host-resident group count at window close —
	// the state the paper refuses to keep on hosts.
	AblatedGroups int
}

// A1Result carries the sweep.
type A1Result struct {
	Points []A1Point
}

// A1HostVsCentralAggregation runs the ablation.
func A1HostVsCentralAggregation() (*A1Result, error) {
	schema := event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
	)
	catalog := event.NewCatalog()
	catalog.MustRegister(schema)

	res := &A1Result{}
	for _, card := range a1Cardinalities {
		// Pre-build the event stream (excluded from both timings). The
		// pool must cover the cardinality so every group actually occurs.
		poolSize := 1 << 18
		if card > poolSize {
			card = poolSize
		}
		events := make([]*event.Event, poolSize)
		for i := range events {
			events[i] = event.NewBuilder(schema).
				SetRequestID(uint64(i)).
				SetTimeNanos(int64(i)+1).
				Int("user_id", int64(i%card)).
				Float("bid_price", 1.5).
				MustBuild()
		}
		mask := poolSize - 1

		// --- Scrub host path: agent with the spam query installed,
		// shipping to a discard sink (central is remote). ---
		agent, err := host.New(host.Config{
			HostID: "h", Service: "S", Catalog: catalog,
			Sink:      host.SinkFunc(func(transport.TupleBatch) error { return nil }),
			QueueSize: 1 << 16,
		})
		if err != nil {
			return nil, err
		}
		if err := agent.Start(transport.HostQuery{
			QueryID: 1, EventType: "bid", Columns: []string{"user_id"},
		}); err != nil {
			agent.Close()
			return nil, err
		}
		start := time.Now()
		for i := 0; i < a1Events; i++ {
			agent.Log(events[i&mask])
		}
		scrubNs := float64(time.Since(start).Nanoseconds()) / float64(a1Events)
		agent.Close()

		// --- Ablated: host-side group-by COUNT(*) per user, windows
		// rotated every 10s of event time. ---
		groups := make(map[int64]int64)
		maxGroups := 0
		var windowStart int64
		start = time.Now()
		for i := 0; i < a1Events; i++ {
			ev := events[i&mask]
			if ev.TimeNanos-windowStart >= int64(10*time.Second) {
				if len(groups) > maxGroups {
					maxGroups = len(groups)
				}
				groups = make(map[int64]int64)
				windowStart = ev.TimeNanos
			}
			user, _ := ev.Get("user_id").AsInt()
			groups[user]++
		}
		if len(groups) > maxGroups {
			maxGroups = len(groups)
		}
		ablatedNs := float64(time.Since(start).Nanoseconds()) / float64(a1Events)

		res.Points = append(res.Points, A1Point{
			Cardinality:       card,
			ScrubNsPerEvent:   scrubNs,
			AblatedNsPerEvent: ablatedNs,
			AblatedGroups:     maxGroups,
		})
	}
	return res, nil
}

// Table renders the ablation.
func (r *A1Result) Table() *Table {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: host-side aggregation vs Scrub's ship-to-central (§4, §6)",
		Columns: []string{"group cardinality", "Scrub host ns/event", "ablated host ns/event", "host-resident groups"},
	}
	for _, p := range r.Points {
		t.AddRow(fmtI(int64(p.Cardinality)), fmtF(p.ScrubNsPerEvent),
			fmtF(p.AblatedNsPerEvent), fmtI(int64(p.AblatedGroups)))
	}
	t.Notes = append(t.Notes,
		"Scrub's host cost is flat in cardinality; the ablated variant's CPU and memory grow with the query's group count — unbounded, query-dependent state on an SLO-bound machine",
		"this is why joins, group-bys and aggregations run only at ScrubCentral")
	return t
}
