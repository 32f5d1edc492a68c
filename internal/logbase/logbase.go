// Package logbase implements the troubleshooting approach Scrub replaces:
// log every event in full, ship it to a central store, and analyze it
// offline in batch (paper §1, §8.1's cost contrast). It exists so the
// benchmark harness can measure exactly what the paper argues —
//
//   - hosts ship every field of every event (no selection, projection,
//     or sampling), so shipped bytes dwarf Scrub's;
//   - nothing is known until a batch scan runs over the accumulated log,
//     so answers arrive after the fact instead of online.
//
// Query semantics intentionally match Scrub's: the batch executor reuses
// the same plans and the same central engine, fed from the log instead
// of from live agents, so comparisons measure the architecture, not
// implementation skew.
package logbase

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// Logger is the per-host "log everything" shipper: every event is fully
// serialized (all fields — queries are not known a priori, so nothing
// can be projected away) and appended to the central store.
type Logger struct {
	hostID string
	store  *LogStore

	mu      sync.Mutex
	scratch []byte
}

// NewLogger creates a logger for one host.
func NewLogger(hostID string, store *LogStore) *Logger {
	return &Logger{hostID: hostID, store: store}
}

// Log serializes and ships one event in full.
func (l *Logger) Log(ev *event.Event) {
	l.mu.Lock()
	l.scratch = event.AppendEvent(l.scratch[:0], ev)
	n := len(l.scratch)
	l.mu.Unlock()
	l.store.append(l.hostID, ev, n)
}

// LogStore is the central log warehouse: everything every host shipped,
// retained for batch analysis.
type LogStore struct {
	mu      sync.Mutex
	entries []logEntry
	bytes   uint64
	hosts   map[string]bool
}

type logEntry struct {
	host string
	ev   *event.Event
}

// NewLogStore returns an empty store.
func NewLogStore() *LogStore {
	return &LogStore{hosts: make(map[string]bool)}
}

func (s *LogStore) append(host string, ev *event.Event, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, logEntry{host: host, ev: ev})
	s.bytes += uint64(bytes)
	s.hosts[host] = true
}

// Len returns the number of stored events.
func (s *LogStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the total bytes shipped into the store.
func (s *LogStore) Bytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// ScanResult is one batch query's output.
type ScanResult struct {
	Windows []transport.ResultWindow
	Scanned int           // log entries read
	Matched uint64        // events that passed selection
	Elapsed time.Duration // scan wall time — the paper's "while the query
	// is running, the problem persists" delay
}

// RunQuery executes Scrub query text over the accumulated log in batch.
// Sampling clauses are ignored (the log already paid for everything) and
// the query span is ignored (batch scans whatever was retained); target
// specs filter by originating host service only when hosts follow the
// "service-name-…" convention used by the simulator — batch systems
// typically re-derive such metadata from log paths.
func (s *LogStore) RunQuery(text string, cat *event.Catalog) (*ScanResult, error) {
	q, err := ql.Parse(text)
	if err != nil {
		return nil, err
	}
	plan, err := ql.Analyze(q, cat)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	entries := make([]logEntry, len(s.entries))
	copy(entries, s.entries)
	nHosts := len(s.hosts)
	s.mu.Unlock()
	if nHosts == 0 {
		nHosts = 1
	}

	// Reuse the central engine for identical semantics: one batch query,
	// windows flushed at the end of the scan.
	engine := central.NewEngine()
	var out ScanResult
	var mu sync.Mutex
	cp := central.FromPlan(plan, 1, 0, 0, nHosts, nHosts)
	cp.SampleEvents = 1
	// Batch replay feeds host streams sequentially, so event time jumps
	// backwards between hosts; effectively unbounded lateness keeps every
	// window open until the final flush.
	cp.Lateness = 365 * 24 * time.Hour
	err = engine.StartQuery(cp, func(rw transport.ResultWindow) {
		mu.Lock()
		out.Windows = append(out.Windows, rw)
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}

	// Compile per-type selection (Scrub runs this on hosts; batch runs
	// it in the scan — same predicate, different place).
	types := plan.TypeNames()
	preds := make(map[string]func(expr.Row) bool, len(types))
	colIdx := make(map[string][]int, len(types))
	typeIdx := make(map[string]uint8, len(types))
	for i, tn := range types {
		typeIdx[tn] = uint8(i)
		schema := plan.Schemas[i]
		if p := plan.HostPred[tn]; p != nil {
			ev, err := expr.Compile(p)
			if err != nil {
				return nil, err
			}
			preds[tn] = expr.Predicate(ev)
		}
		idx := make([]int, len(plan.Columns[tn]))
		for j, col := range plan.Columns[tn] {
			fi := schema.FieldIndex(col)
			if fi < 0 {
				return nil, fmt.Errorf("logbase: schema %s missing column %s", tn, col)
			}
			idx[j] = fi
		}
		colIdx[tn] = idx
	}

	startScan := time.Now()
	// Batch per (type, host) to amortize engine calls, preserving event
	// order within the log.
	const batchSize = 1024
	type batchKey struct {
		typeName string
		host     string
	}
	pend := make(map[batchKey][]transport.Tuple)
	flush := func(k batchKey) {
		tuples := pend[k]
		if len(tuples) == 0 {
			return
		}
		engine.HandleBatch(transport.TupleBatch{
			QueryID: 1, HostID: k.host, TypeIdx: typeIdx[k.typeName],
			Tuples: tuples,
		})
		pend[k] = nil
	}
	for _, e := range entries {
		out.Scanned++
		tn := e.ev.Schema.Name()
		idx, ok := colIdx[tn]
		if !ok {
			continue // not a type this query reads
		}
		if p := preds[tn]; p != nil && !p(expr.EventRow{Event: e.ev}) {
			continue
		}
		out.Matched++
		vals := make([]event.Value, len(idx))
		for j, fi := range idx {
			vals[j] = e.ev.At(fi)
		}
		k := batchKey{typeName: tn, host: e.host}
		pend[k] = append(pend[k], transport.Tuple{
			RequestID: e.ev.RequestID, TsNanos: e.ev.TimeNanos, Values: vals,
		})
		if len(pend[k]) >= batchSize {
			flush(k)
		}
	}
	keys := make([]batchKey, 0, len(pend))
	for k := range pend {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].typeName != keys[j].typeName {
			return keys[i].typeName < keys[j].typeName
		}
		return keys[i].host < keys[j].host
	})
	for _, k := range keys {
		flush(k)
	}
	engine.StopQuery(1)
	out.Elapsed = time.Since(startScan)

	sort.Slice(out.Windows, func(i, j int) bool {
		return out.Windows[i].WindowStart < out.Windows[j].WindowStart
	})
	return &out, nil
}
