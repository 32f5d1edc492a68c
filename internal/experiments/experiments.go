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
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/central"
	"scrub/internal/core"
	"scrub/internal/difftest"
	"scrub/internal/event"
	"scrub/internal/oracle"
	"scrub/internal/ql"
	"scrub/internal/replay"
	"scrub/internal/server"
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
// A2), and the oracle's input (check). tap holds what the agents handed
// central: what the executor arms replay (replayArms).
type sim struct {
	*adplatform.Platform
	gen *workload.Generator
	rec *replay.Store
	tap *tap
}

// tap is central as the agents see it: it keeps a copy of every batch
// they hand over, in the order the executor takes them (the lock is held
// across the hand-over for that order).
type tap struct {
	central.Executor
	mu      sync.Mutex
	batches []transport.TupleBatch
}

func (t *tap) HandleBatch(b transport.TupleBatch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batches = append(t.batches, transport.CloneBatch(b))
	t.Executor.HandleBatch(b)
}

func catalog() *event.Catalog {
	cat := event.NewCatalog()
	adplatform.RegisterEventTypes(cat)
	return cat
}

// newSim builds a case study's platform on the epoch clock, its agents
// recording into one store and shipping through a tap, and a generator
// starting at epoch whose user profiles it installs. Agents ship when run
// flushes them, not on a timer; QueueSize defaults to 1<<16.
func newSim(pcfg adplatform.Config, spec workload.Spec) (*sim, error) {
	clock := func() time.Time { return epoch }
	// The store evicts nothing a case study logs; check fails if it did.
	rec, err := replay.Open(replay.Options{Catalog: catalog(), Clock: clock, MaxBytes: 1 << 30})
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
	// The cluster's agents hand their batches to whatever executor its
	// Engine field holds at the time, so the tap goes in there, before any
	// query runs; the query server keeps the executor itself.
	s := &sim{Platform: platform, rec: rec, tap: &tap{Executor: platform.Cluster.Engine}}
	platform.Cluster.Engine = s.tap
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
// case study's answer is exact or it is not reported. So is one whose
// batches, replayed through every executor arm (replayArms), come out
// different.
func (s *sim) run(queries []string, d time.Duration, each func(adplatform.BidRequest)) ([][]transport.ResultWindow, int, error) {
	lc := s.Cluster
	streams := make([]*core.Stream, len(queries))
	for i, q := range queries {
		st, err := lc.Query(q)
		if err != nil {
			return nil, 0, fmt.Errorf("experiments: submit %q: %w", q, err)
		}
		streams[i] = st
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
	out := make([][]transport.ResultWindow, len(queries))
	for i, stream := range streams {
		// A stream buffers 1 024 windows, more than any case study emits; a
		// window it dropped would show as the arms' extra one.
		if err := lc.Cancel(stream.Info.ID); err != nil {
			return nil, 0, err
		}
		for rw := range stream.Windows {
			out[i] = append(out[i], rw)
		}
		st := stream.Final()
		if st.LateDrops != 0 || st.HostDrops != 0 || st.DegradedWindows != 0 {
			return nil, 0, fmt.Errorf("experiments: %q under-counted: %d late drops, %d host drops, %d degraded windows",
				queries[i], st.LateDrops, st.HostDrops, st.DegradedWindows)
		}
		if err := s.replayArms(queries[i], stream.Info, out[i], st); err != nil {
			return nil, 0, err
		}
	}
	return out, requests, nil
}

// replayArms runs what the agents handed central for one query through
// difftest's executor arms at 2 and 4 shards, and holds them to the live
// run: the engine arm must emit the live windows and final stats, and
// Arms holds every other arm to it (contracts D, D′ and D″), so a query
// check holds to the oracle is held to it in every arm. Like the live
// run, the arms read the epoch, which closes no window, and never tick.
func (s *sim) replayArms(query string, info server.QueryInfo, live []transport.ResultWindow, final transport.QueryStats) error {
	qp, err := s.analyze(query)
	if err != nil {
		return err
	}
	plan := central.FromPlan(qp, info.ID, info.Start.UnixNano(), info.End.UnixNano(), info.NumHosts, info.SampledHosts)
	plan.Text = query
	var sched difftest.Schedule
	for i := range s.tap.batches {
		if b := &s.tap.batches[i]; b.QueryID == info.ID {
			sched.Steps = append(sched.Steps, difftest.Step{Batch: b, Clock: epoch.UnixNano()})
		}
	}
	for _, shards := range []int{2, 4} {
		arms, err := difftest.Arms(plan, catalog, sched, shards)
		if err == nil {
			err = difftest.CompareWindows(live, arms[0].Windows)
		}
		if err == nil && arms[0].Stats != final {
			err = fmt.Errorf("final stats %+v, live %+v", arms[0].Stats, final)
		}
		if err != nil {
			return fmt.Errorf("experiments: %q at %d shards: the arms diverge from the live run: %w", query, shards, err)
		}
	}
	return nil
}

func (s *sim) analyze(query string) (*ql.Plan, error) {
	q, err := ql.Parse(query)
	if err != nil {
		return nil, err
	}
	return ql.Analyze(q, s.Catalog)
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

// A query check refuses: the record holds every event, sampled or not, and
// from every host, but not which host logged it.
var (
	errSampled      = errors.New("it samples, and the oracle's answer is exact")
	errHostTargeted = errors.New("its target names hosts, and the record does not say which host logged an event")
)

// check holds query's windows, as run returned them, to the exact oracle
// over the record, and returns the oracle's windows. oracle.Input reads
// the record as the query's host objects would have matched it, and the
// oracle shares no aggregate state with central. A query can be checked
// only if it samples nothing and its target covers every host that logs
// its types: a target by service does — each of the platform's services
// logs the same types on every host — and a target that names hosts need
// not (errSampled, errHostTargeted). The record must be complete: it must
// hold exactly the events the agents counted as logged.
func (s *sim) check(query string, wins []transport.ResultWindow) ([]oracle.Result, error) {
	qp, err := s.analyze(query)
	switch {
	case err != nil:
		return nil, err
	case qp.SampleHosts < 1 || qp.SampleEvents < 1:
		return nil, fmt.Errorf("experiments: cannot check %q: %w", query, errSampled)
	case len(qp.Target.Servers) > 0:
		return nil, fmt.Errorf("experiments: cannot check %q: %w", query, errHostTargeted)
	}
	var scanned uint64
	events, err := oracle.Input(qp, func(emit func(string, *event.Event)) error {
		return s.scan("", func(ev *event.Event) {
			scanned++
			emit("", ev)
		})
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
