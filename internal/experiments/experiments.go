// Package experiments reproduces the tables and figures of the paper's
// §8 case studies, plus the comparisons the design rests on (logging,
// baggage, host-side aggregation), the overhead governor and a chaos
// soak. Each experiment is a parameterless function, its one
// configuration constants in its file, returning a result that carries
// both structured data (asserted in tests) and a printable table (rendered
// by cmd/benchrunner, whose tables for the case studies are pinned by a
// golden file, and quoted by EXPERIMENTS.md).
//
// The substrate is the simulated ad platform (internal/adplatform) under
// synthetic-but-shaped traffic (internal/workload); absolute numbers
// differ from Turn's production testbed, but each experiment documents
// the paper's qualitative claim and checks that the reproduction shows
// the same shape.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/central"
	"scrub/internal/core"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/oracle"
	"scrub/internal/ql"
	"scrub/internal/replay"
	"scrub/internal/transport"
	"scrub/internal/workload"
)

// Table is one printable experiment artifact.
type Table struct {
	ID      string // experiment id, e.g. "E1" or "P5"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// epoch is the virtual start of every case study on simulated traffic.
// Their whole deployment reads it as the time — agents, central and the
// query server — so windows align the same way on every run and nothing
// closes by the wall clock; windows close as the request stream's
// timestamps advance.
var epoch = time.Date(2018, time.April, 23, 0, 0, 0, 0, time.UTC)

// sim is one case study's deployment: the platform, the generator whose
// requests drive it, and rec, the record of every event the platform's
// agents log. The record is what full-event logging would have kept (P5,
// A2), and the oracle's input (check).
type sim struct {
	*adplatform.Platform
	gen *workload.Generator
	rec *replay.Store
}

// newSim builds a case study's platform on the epoch clock, its agents
// recording into one store, and a generator starting at epoch whose user
// profiles it installs. Agents ship when run flushes them, not on a
// timer; QueueSize defaults to 1<<16.
func newSim(pcfg adplatform.Config, spec workload.Spec) (*sim, error) {
	clock := func() time.Time { return epoch }
	cat := event.NewCatalog()
	adplatform.RegisterEventTypes(cat)
	// The store evicts nothing a case study logs; check fails if it did.
	rec, err := replay.Open(replay.Options{Catalog: cat, Clock: clock, MaxBytes: 1 << 30})
	if err != nil {
		return nil, err
	}
	pcfg.Agent.Clock = clock
	pcfg.Agent.FlushInterval = time.Hour
	pcfg.Agent.Record = rec
	if pcfg.Agent.QueueSize == 0 {
		pcfg.Agent.QueueSize = 1 << 16
	}
	platform, err := adplatform.New(pcfg)
	if err != nil {
		rec.Close()
		return nil, err
	}
	s := &sim{Platform: platform, rec: rec}
	if s.gen, err = workload.NewGenerator(spec, epoch); err != nil {
		s.Close()
		return nil, err
	}
	s.gen.InstallProfiles(platform.Store)
	return s, nil
}

// Close shuts the platform down, then its record.
func (s *sim) Close() {
	s.Platform.Close()
	s.rec.Close()
}

// run submits queries, processes d of the generator's requests through
// the platform (calling each, when non-nil, after each request), flushes
// agents, cancels the queries, and returns each query's collected windows
// (in submission order) and the number of requests. Every agent is
// flushed each time the request stream crosses a virtual second, so no
// stream's undelivered tuples are more than a second older than what
// central has seen — less than the 2 s close slack of every case study's
// windows (10 s or longer), so none arrives late. A query that dropped a
// tuple late or on a host, or emitted a degraded window, is an error: a
// case study's answer is exact or it is not reported.
func (s *sim) run(queries []string, d time.Duration, each func(adplatform.BidRequest)) ([][]transport.ResultWindow, int, error) {
	lc := s.Cluster
	streams := make([]*core.Stream, len(queries))
	collected := make([]chan []transport.ResultWindow, len(queries))
	for i, q := range queries {
		st, err := lc.Query(q)
		if err != nil {
			return nil, 0, fmt.Errorf("experiments: submit %q: %w", q, err)
		}
		c := make(chan []transport.ResultWindow, 1)
		go func() {
			var ws []transport.ResultWindow
			for rw := range st.Windows {
				ws = append(ws, rw)
			}
			c <- ws
		}()
		streams[i], collected[i] = st, c
	}
	var sec int64
	requests := s.gen.Run(d, func(r adplatform.BidRequest) {
		if now := r.TimeNanos / int64(time.Second); now != sec {
			sec = now
			lc.FlushAgents()
		}
		s.Process(r)
		if each != nil {
			each(r)
		}
	})
	lc.FlushAgents()
	// One extra flush cycle: the first Flush guarantees queue drain, the
	// second guarantees the counter-only heartbeats landed too.
	lc.FlushAgents()
	for _, st := range streams {
		if err := lc.Cancel(st.Info.ID); err != nil {
			return nil, 0, err
		}
	}
	out := make([][]transport.ResultWindow, len(queries))
	for i, stream := range streams {
		out[i] = <-collected[i]
		if st := stream.Final(); st.LateDrops != 0 || st.HostDrops != 0 || st.DegradedWindows != 0 {
			return nil, 0, fmt.Errorf("experiments: %q under-counted: %d late drops, %d host drops, %d degraded windows",
				queries[i], st.LateDrops, st.HostDrops, st.DegradedWindows)
		}
	}
	return out, requests, nil
}

// scan calls fn on every recorded event of type typ ("" for every type),
// in the order the agents logged them.
func (s *sim) scan(typ string, fn func(*event.Event)) error {
	return s.rec.Scan(math.MinInt64, math.MaxInt64, typ, func(ev *event.Event) bool {
		fn(ev)
		return true
	})
}

// shipped sums what every agent handed to central: tuples, and their
// measured wire bytes.
func (s *sim) shipped() (tuples, bytes uint64) {
	for _, a := range s.Cluster.Agents() {
		st := a.Stats()
		tuples += st.Shipped
		bytes += st.ShipBytes
	}
	return tuples, bytes
}

// check holds query's windows, as run returned them, to the exact oracle
// over the record, and returns the oracle's windows. The oracle reads
// what the query's host objects would have matched — the record's events
// of its types, through the reference closure of each object's predicate,
// projected to the object's columns — and shares no aggregate state with
// central. A query can be checked only if it samples nothing and its
// target covers every host that logs its types: the record does not say
// which host logged an event. The record must be complete: it must hold
// exactly the events the agents counted as logged.
func (s *sim) check(query string, wins []transport.ResultWindow) ([]oracle.Result, error) {
	q, err := ql.Parse(query)
	if err != nil {
		return nil, err
	}
	qp, err := ql.Analyze(q, s.Catalog)
	if err != nil {
		return nil, err
	}
	if qp.SampleHosts < 1 || qp.SampleEvents < 1 {
		return nil, fmt.Errorf("experiments: %q samples: the oracle's answer is exact", query)
	}
	type object struct {
		typeIdx int
		pred    func(expr.Row) bool
		columns []string
	}
	objects := make(map[string]object)
	for _, hq := range qp.HostQueries(0, 0, 0) {
		o := object{typeIdx: int(hq.TypeIdx), columns: hq.Columns}
		if hq.Pred != nil {
			ev, err := expr.Compile(hq.Pred)
			if err != nil {
				return nil, err
			}
			o.pred = expr.Predicate(ev)
		}
		objects[hq.EventType] = o
	}
	var scanned uint64
	var events []oracle.Event
	err = s.scan("", func(ev *event.Event) {
		scanned++
		o, ok := objects[ev.Schema.Name()]
		if !ok || o.pred != nil && !o.pred(expr.EventRow{Event: ev}) {
			return
		}
		e := oracle.Event{TypeIdx: o.typeIdx, RequestID: ev.RequestID, TsNanos: ev.TimeNanos}
		for _, col := range o.columns {
			e.Values = append(e.Values, ev.Get(col))
		}
		events = append(events, e)
	})
	if err != nil {
		return nil, err
	}
	var logged uint64
	for _, a := range s.Cluster.Agents() {
		logged += a.Stats().Logged
	}
	if scanned != logged {
		return nil, fmt.Errorf("experiments: the record holds %d events, the agents logged %d", scanned, logged)
	}
	plan := central.FromPlan(qp, 1, 0, 0, 1, 1)
	owins, err := oracle.Eval(plan, events)
	if err != nil {
		return nil, err
	}
	if err := oracle.Compare(&plan, wins, owins); err != nil {
		return nil, fmt.Errorf("experiments: %q diverges from the oracle: %w", query, err)
	}
	return owins, nil
}

// fmtF renders a float compactly.
func fmtF(x float64) string { return fmt.Sprintf("%.4g", x) }

// fmtI renders an int.
func fmtI(x int64) string { return fmt.Sprintf("%d", x) }
