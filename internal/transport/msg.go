// Package transport defines Scrub's wire protocol: the messages exchanged
// between troubleshooter clients, the query server, host agents, and
// ScrubCentral, a compact binary codec for them, and length-prefixed
// framing over net.Conn.
//
// Three conversations use this protocol:
//
//   - client ↔ query server: SubmitQuery / QueryAccepted / ResultWindow /
//     QueryDone / QueryError / CancelQuery
//   - host agent ↔ query server (control): RegisterHost, then the server
//     pushes HostQuery / StopQuery
//   - host agent → ScrubCentral (data): DataHello, then TupleBatch stream
//
// The query server and ScrubCentral share a process (the paper's dedicated
// central facility), so no wire protocol exists between them.
package transport

import (
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/wire"
)

// Message type tags.
const (
	tagSubmitQuery byte = iota + 1
	tagQueryAccepted
	tagQueryError
	tagResultWindow
	tagQueryDone
	tagCancelQuery
	tagRegisterHost
	tagHostQuery
	tagStopQuery
	tagDataHello
	tagTupleBatch
	_ // 12, retired with Ping: never reuse
	_ // 13, retired with Pong: never reuse
	tagListQueries
	tagQueryList
)

// Message is any protocol message.
type Message interface{ msgTag() byte }

// SubmitQuery carries query text from a client to the query server.
type SubmitQuery struct {
	Text string
}

// QueryAccepted acknowledges a submitted query.
type QueryAccepted struct {
	QueryID      uint64
	Columns      []string // result column labels
	NumHosts     uint32   // hosts matching the target spec
	SampledHosts uint32   // hosts actually activated (after host sampling)
	EndNanos     int64    // absolute end of the query span
}

// QueryError reports a rejected query or a mid-flight failure.
type QueryError struct {
	QueryID uint64 // 0 when the query was rejected before assignment
	Msg     string
}

// WindowStats summarizes one emitted window's accounting, including the
// accuracy losses the paper accepts by design (queue drops, late drops).
type WindowStats struct {
	TuplesIn  uint64 // tuples folded into this window
	HostDrops uint64 // Σ StreamStat.Drops so far: host queue drops + routing failures
	// LateDrops is Σ StreamStat.LateDrops so far, plus the streams'
	// overflow drops (raw-row and join-pending caps) and the raw rows
	// merging shard partials truncated: every tuple central accepted and
	// then could not count.
	LateDrops      uint64
	HostsReporting uint32 // distinct hosts that contributed
}

// StreamStat reports one (host, event-type) tuple stream's last-known
// cumulative accounting as of a window's emission, plus its liveness
// state. A troubleshooter reads these to see exactly how much data a
// result is missing and from whom.
type StreamStat struct {
	HostID    string
	TypeIdx   uint8
	Matched   uint64 // events matching selection (pre event-sampling)
	Sampled   uint64 // events shipped (post sampling, pre queue drops)
	Drops     uint64 // host queue drops (evicted kept chunks too) + Σ manifests' RouteDrops
	LateDrops uint64 // this stream's tuples that missed their windows
	Evicted   bool   // liveness lease expired; excluded from the watermark
	// Governor accounting (PR 3): the host's last-reported effective
	// event-sampling rate (0 = never reported; shown, not scaled by),
	// whether the budget governor shed the query on this host, and the
	// cumulative measured cost there.
	EffRate    float64
	BudgetShed bool
	CPUNs      uint64 // cumulative hot-path CPU nanoseconds (sampled ×64)
	Bytes      uint64 // cumulative encoded batch bytes shipped
}

// ResultWindow streams one closed window's result rows to the client.
type ResultWindow struct {
	QueryID     uint64
	WindowStart int64
	WindowEnd   int64
	Columns     []string
	Rows        [][]event.Value
	// Approx is set when sampling scaled the results; ErrBounds then
	// holds the ± bound per column (NaN for non-scalable columns).
	Approx    bool
	ErrBounds []float64
	Stats     WindowStats
	// Degraded marks a window emitted while at least one reporting
	// stream's liveness lease had expired: results are complete with
	// respect to the live hosts, but the evicted hosts' data is missing.
	// Streams lists every reporting stream (sorted by host, then type)
	// with its last-known counters; the evicted ones are flagged.
	Degraded bool
	// BudgetShed marks a window emitted while at least one reporting
	// stream had been shed by the host-impact governor: the shed hosts
	// stopped contributing events when their budget floor was breached.
	BudgetShed bool
	Streams    []StreamStat
}

// QueryStats summarizes a query, running or finished. The drop totals
// are read from the query's streams when the stats are taken, so they
// can be ahead of the last emitted window's.
type QueryStats struct {
	Windows   uint64
	Rows      uint64
	TuplesIn  uint64
	HostDrops uint64 // Σ StreamStat.Drops: host queue drops + routing failures
	// LateDrops is what the shards dropped of the query's tuples — late
	// for their window, or past a raw-row or join-pending cap — as the
	// manifests folded so far reported it, plus the raw rows merging
	// shard partials truncated.
	LateDrops uint64
	// DegradedWindows counts windows emitted with >= 1 evicted stream.
	DegradedWindows uint64
	// ShedWindows counts windows emitted with >= 1 budget-shed stream.
	ShedWindows uint64
}

// QueryDone tells the client the query span ended.
type QueryDone struct {
	QueryID uint64
	Stats   QueryStats
}

// CancelQuery asks the server to tear a query down before its span ends.
type CancelQuery struct {
	QueryID uint64
}

// RegisterHost announces an agent on its control connection.
type RegisterHost struct {
	HostID  string
	Service string
	DC      string
}

// HostQuery is the query object shipped to a host: only selection,
// projection, and sampling — the operations the paper allows on hosts.
type HostQuery struct {
	QueryID      uint64
	EventType    string
	TypeIdx      uint8     // position of EventType in the query's FROM list
	Pred         expr.Node // selection; nil ships every event
	Columns      []string  // projection: user fields to ship
	SampleEvents float64   // (0,1]
	StartNanos   int64     // activate at
	EndNanos     int64     // deactivate at (span expiry)
	// Host-impact budget (BUDGET clause); 0 means unlimited. The agent's
	// governor downsamples then sheds when the measured cost exceeds it.
	BudgetCPUPct      float64
	BudgetBytesPerSec float64
	// ReplayNanos asks the host to replay recorded events from
	// [StartNanos-ReplayNanos, StartNanos) through its record stream
	// before the query goes live (REPLAY clause); 0 disables replay.
	ReplayNanos int64
	// ShardEpoch pins the query to a shard-map epoch when the central
	// facility runs as a distributed fabric (internal/coord): agents route
	// the query's batches by request id over exactly that epoch's shard
	// set, so every host splits a request's tuples identically. 0 means
	// single-process central — ship whole batches to the data address.
	ShardEpoch uint32
}

// StopQuery deactivates a query on a host (cancel or span end).
type StopQuery struct {
	QueryID uint64
}

// DataHello opens an agent's data connection to ScrubCentral.
type DataHello struct {
	HostID string
}

// Tuple is one projected event: system fields plus the projected column
// values in HostQuery.Columns order.
type Tuple struct {
	RequestID uint64
	TsNanos   int64
	// Values is carved from the sending agent's pooled chunk arena and is
	// recycled after SendBatch returns; retain only via a deep copy.
	//scrub:pooled
	Values []event.Value
}

// TupleBatch carries sampled, selected, projected tuples from a host to
// ScrubCentral. The counters are cumulative per (query, host, type): they
// let the estimator recover Mᵢ and mᵢ, and let results report drops.
type TupleBatch struct {
	QueryID uint64
	HostID  string
	TypeIdx uint8
	// Tuples (and each tuple's Values) alias the sender's pooled chunk
	// memory, reused after SendBatch returns. Sinks that buffer batches
	// must deep-copy (CloneBatch); see the Sink contract.
	//scrub:pooled
	Tuples       []Tuple
	MatchedTotal uint64 // events matching selection (pre event-sampling)
	SampledTotal uint64 // events shipped (post sampling, pre queue drops)
	QueueDrops   uint64 // events lost to the bounded host queue
	// Governor accounting: the rate the tuples were sampled at (base rate
	// × governor multiplier; a heartbeat's, the rate now; 0 only from
	// pre-governor peers), whether the governor shed the query on this
	// host, and cumulative measured cost (CPU-ns sampled ×64; encoded
	// bytes shipped).
	EffRate    float64
	BudgetShed bool
	CPUNs      uint64
	ShipBytes  uint64
	// Replay-epoch framing. ReplayEpoch is nonzero on batches carrying
	// historical tuples replayed from the host's record stream; central
	// folds them into windows under the query's replay hold so windows
	// the history belongs to cannot force-close first. ReplayDone marks
	// the stream's final replay batch: everything after it is live.
	ReplayEpoch uint32
	ReplayDone  bool
}

// ListQueries asks the server for its active queries (operational
// visibility: the paper notes query load "can at times be considerable").
type ListQueries struct{}

// QuerySummary describes one active query.
type QuerySummary struct {
	QueryID  uint64
	Text     string
	Columns  []string
	Hosts    uint32 // activated hosts
	EndNanos int64
	Stats    QueryStats
}

// QueryList answers ListQueries.
type QueryList struct {
	Queries []QuerySummary
}

func (SubmitQuery) msgTag() byte   { return tagSubmitQuery }
func (QueryAccepted) msgTag() byte { return tagQueryAccepted }
func (QueryError) msgTag() byte    { return tagQueryError }
func (ResultWindow) msgTag() byte  { return tagResultWindow }
func (QueryDone) msgTag() byte     { return tagQueryDone }
func (CancelQuery) msgTag() byte   { return tagCancelQuery }
func (RegisterHost) msgTag() byte  { return tagRegisterHost }
func (HostQuery) msgTag() byte     { return tagHostQuery }
func (StopQuery) msgTag() byte     { return tagStopQuery }
func (DataHello) msgTag() byte     { return tagDataHello }
func (TupleBatch) msgTag() byte    { return tagTupleBatch }
func (ListQueries) msgTag() byte   { return tagListQueries }
func (QueryList) msgTag() byte     { return tagQueryList }

// Each message's description: its fields in wire order (see coder). Structs
// nested in a message are described the same way.

func (t *SubmitQuery) code(c *coder) { c.Str(&t.Text) }

func (t *QueryAccepted) code(c *coder) {
	c.U64(&t.QueryID)
	c.Strs(&t.Columns)
	c.U32(&t.NumHosts)
	c.U32(&t.SampledHosts)
	c.I64(&t.EndNanos)
}

func (t *QueryError) code(c *coder) {
	c.U64(&t.QueryID)
	c.Str(&t.Msg)
}

func (t *ResultWindow) code(c *coder) {
	c.U64(&t.QueryID)
	c.I64(&t.WindowStart)
	c.I64(&t.WindowEnd)
	c.Strs(&t.Columns)
	wire.Length(&c.Coder, &t.Rows, wire.EmptyKept, "implausible row count")
	for i := range t.Rows {
		row := &t.Rows[i]
		wire.Length(&c.Coder, row, wire.EmptyKept, "implausible value count")
		for j := range *row {
			c.Value(&(*row)[j])
		}
	}
	c.Bool(&t.Approx)
	wire.Length(&c.Coder, &t.ErrBounds, wire.EmptyKept, "implausible bound count")
	for i := range t.ErrBounds {
		c.F64(&t.ErrBounds[i])
	}
	c.U64(&t.Stats.TuplesIn)
	c.U64(&t.Stats.HostDrops)
	c.U64(&t.Stats.LateDrops)
	c.U32(&t.Stats.HostsReporting)
	c.Bool(&t.Degraded)
	c.Bool(&t.BudgetShed)
	wire.Length(&c.Coder, &t.Streams, wire.EmptyNil, "implausible stream count")
	for i := range t.Streams {
		t.Streams[i].code(c)
	}
}

func (s *StreamStat) code(c *coder) {
	c.Str(&s.HostID)
	c.U8(&s.TypeIdx)
	c.U64(&s.Matched)
	c.U64(&s.Sampled)
	c.U64(&s.Drops)
	c.U64(&s.LateDrops)
	c.Bool(&s.Evicted)
	c.F64(&s.EffRate)
	c.Bool(&s.BudgetShed)
	c.U64(&s.CPUNs)
	c.U64(&s.Bytes)
}

func (s *QueryStats) code(c *coder) {
	c.U64(&s.Windows)
	c.U64(&s.Rows)
	c.U64(&s.TuplesIn)
	c.U64(&s.HostDrops)
	c.U64(&s.LateDrops)
	c.U64(&s.DegradedWindows)
	c.U64(&s.ShedWindows)
}

func (t *QueryDone) code(c *coder) {
	c.U64(&t.QueryID)
	t.Stats.code(c)
}

func (t *CancelQuery) code(c *coder) { c.U64(&t.QueryID) }

func (t *RegisterHost) code(c *coder) {
	c.Str(&t.HostID)
	c.Str(&t.Service)
	c.Str(&t.DC)
}

func (t *HostQuery) code(c *coder) {
	c.U64(&t.QueryID)
	c.Str(&t.EventType)
	c.U8(&t.TypeIdx)
	present := t.Pred != nil // any nonzero byte decodes as present
	c.NonZero(&present)
	if present {
		expr.CodeNode(&c.Coder, &t.Pred)
	}
	c.Strs(&t.Columns)
	c.F64(&t.SampleEvents)
	c.I64(&t.StartNanos)
	c.I64(&t.EndNanos)
	c.F64(&t.BudgetCPUPct)
	c.F64(&t.BudgetBytesPerSec)
	c.I64(&t.ReplayNanos)
	c.U32(&t.ShardEpoch)
}

func (t *StopQuery) code(c *coder) { c.U64(&t.QueryID) }

func (t *DataHello) code(c *coder) { c.Str(&t.HostID) }

func (tp *Tuple) code(c *coder) {
	c.U64(&tp.RequestID)
	c.I64(&tp.TsNanos)
	c.cells(&tp.Values)
}

func (t *TupleBatch) code(c *coder) {
	t.stream(c)
	c.tuples(&t.Tuples)
	t.counters(c)
}

// stream and counters describe a batch's header — the stream it belongs
// to and the host's report on it — which BatchManifest carries too.
func (t *TupleBatch) stream(c *coder) {
	c.U64(&t.QueryID)
	c.Str(&t.HostID)
	c.U8(&t.TypeIdx)
}

func (t *TupleBatch) counters(c *coder) {
	c.U64(&t.MatchedTotal)
	c.U64(&t.SampledTotal)
	c.U64(&t.QueueDrops)
	c.F64(&t.EffRate)
	c.Bool(&t.BudgetShed)
	c.U64(&t.CPUNs)
	c.U64(&t.ShipBytes)
	c.U32(&t.ReplayEpoch)
	c.Bool(&t.ReplayDone)
}

func (t *QueryList) code(c *coder) {
	wire.Length(&c.Coder, &t.Queries, wire.EmptyKept, "implausible query count")
	for i := range t.Queries {
		q := &t.Queries[i]
		c.U64(&q.QueryID)
		c.Str(&q.Text)
		c.Strs(&q.Columns)
		c.U32(&q.Hosts)
		c.I64(&q.EndNanos)
		q.Stats.code(c)
	}
}
