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
	"strings"
	"sync"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/core"
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

// collectStream drains a query stream in the background.
type collectStream struct {
	stream  *core.Stream
	mu      sync.Mutex
	windows []transport.ResultWindow
	done    chan struct{}
}

func newCollect(st *core.Stream) *collectStream {
	c := &collectStream{stream: st, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for rw := range st.Windows {
			c.mu.Lock()
			c.windows = append(c.windows, rw)
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *collectStream) wait() []transport.ResultWindow {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windows
}

// RunScenario submits queries against a cluster, runs the traffic
// function, flushes agents, cancels the queries, and returns each
// query's collected windows (in submission order). A query that dropped a
// tuple late or on a host, or emitted a degraded window, is an error: a
// case study's answer is exact or it is not reported.
func RunScenario(lc *core.LocalCluster, queries []string, traffic func()) ([][]transport.ResultWindow, error) {
	collects := make([]*collectStream, 0, len(queries))
	ids := make([]uint64, 0, len(queries))
	for _, q := range queries {
		st, err := lc.Query(q)
		if err != nil {
			return nil, fmt.Errorf("experiments: submit %q: %w", q, err)
		}
		collects = append(collects, newCollect(st))
		ids = append(ids, st.Info.ID)
	}
	traffic()
	lc.FlushAgents()
	// One extra flush cycle: the first Flush guarantees queue drain, the
	// second guarantees the counter-only heartbeats landed too.
	lc.FlushAgents()
	for _, id := range ids {
		if err := lc.Cancel(id); err != nil {
			return nil, err
		}
	}
	out := make([][]transport.ResultWindow, len(collects))
	for i, c := range collects {
		out[i] = c.wait()
		if s := c.stream.Final(); s.LateDrops != 0 || s.HostDrops != 0 || s.DegradedWindows != 0 {
			return nil, fmt.Errorf("experiments: %q under-counted: %d late drops, %d host drops, %d degraded windows",
				queries[i], s.LateDrops, s.HostDrops, s.DegradedWindows)
		}
	}
	return out, nil
}

// epoch is the virtual start of every case study on simulated traffic.
// Their whole deployment reads it as the time — agents, central and the
// query server — so windows align the same way on every run and nothing
// closes by the wall clock; windows close as the request stream's
// timestamps advance.
var epoch = time.Date(2018, time.April, 23, 0, 0, 0, 0, time.UTC)

// newSim builds a case study's platform on the epoch clock, and a
// generator starting at epoch whose user profiles it installs. Agents ship
// when drive flushes them, not on a timer; QueueSize defaults to 1<<16.
func newSim(pcfg adplatform.Config, spec workload.Spec) (*adplatform.Platform, *workload.Generator, error) {
	pcfg.Agent.Clock = func() time.Time { return epoch }
	pcfg.Agent.FlushInterval = time.Hour
	if pcfg.Agent.QueueSize == 0 {
		pcfg.Agent.QueueSize = 1 << 16
	}
	platform, err := adplatform.New(pcfg)
	if err != nil {
		return nil, nil, err
	}
	gen, err := workload.NewGenerator(spec, epoch)
	if err != nil {
		platform.Close()
		return nil, nil, err
	}
	gen.InstallProfiles(platform.Store)
	return platform, gen, nil
}

// drive runs d of the generator's requests through fn and flushes every
// agent of p each time the request stream crosses a virtual second, so no
// stream's undelivered tuples are more than a second older than what
// central has seen — less than the 2 s close slack of every case study's
// windows (10 s or longer), so none arrives late. It returns the number
// of requests.
func drive(p *adplatform.Platform, gen *workload.Generator, d time.Duration, fn func(adplatform.BidRequest)) int {
	var sec int64
	return gen.Run(d, func(r adplatform.BidRequest) {
		if s := r.TimeNanos / int64(time.Second); s != sec {
			sec = s
			p.Cluster.FlushAgents()
		}
		fn(r)
	})
}

// fmtF renders a float compactly.
func fmtF(x float64) string { return fmt.Sprintf("%.4g", x) }

// fmtI renders an int.
func fmtI(x int64) string { return fmt.Sprintf("%d", x) }
