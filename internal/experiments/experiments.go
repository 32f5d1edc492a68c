// Package experiments reproduces every table and figure of the paper's
// evaluation (the §8 case studies and the §9/abstract performance
// claims), plus the methodology checks the design rests on (sampling
// error bounds, sketch accuracy, logging comparison). Each experiment is
// a function from a config with sensible defaults to a result carrying
// both structured data (asserted in tests and benchmarks) and a
// printable table (rendered by cmd/benchrunner and EXPERIMENTS.md).
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

	"scrub/internal/core"
	"scrub/internal/transport"
)

// Table is one printable experiment artifact.
type Table struct {
	ID      string // experiment id, e.g. "E1" or "P3"
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
// query's collected windows (in submission order).
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
	}
	return out, nil
}

// virtualStart picks the virtual epoch for simulated traffic: slightly in
// the future of the wall clock so the central wall-clock tick never
// declares simulated windows late (see central.Merger.Tick).
func virtualStart() time.Time {
	return time.Now().Add(5 * time.Second)
}

// fmtF renders a float compactly.
func fmtF(x float64) string { return fmt.Sprintf("%.4g", x) }

// fmtI renders an int.
func fmtI(x int64) string { return fmt.Sprintf("%d", x) }
