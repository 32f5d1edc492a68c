package central

import (
	"encoding/binary"
	"fmt"
	"sort"

	"scrub/internal/agg"
	"scrub/internal/event"
	"scrub/internal/liveness"
	"scrub/internal/stats"
	"scrub/internal/transport"
)

// This file is the exported surface a distributed ScrubCentral builds on
// (internal/coord): shard processes run an Engine in driven mode — windows
// close only when the coordinator says so — and ship their accumulated
// window state as serialized partials; the coordinator decodes, merges and
// renders them with the exact logic ShardedEngine uses in-process, so the
// three executors stay bit-identical under the differential oracle.

// EncodedPartial is one driven window's serialized accumulated state.
type EncodedPartial struct {
	Start int64
	End   int64
	Data  []byte
}

// DrivenAck reports how a driven engine absorbed one sub-batch. The
// router folds the per-shard acks (OR HasTs, max MaxTs, sum LateDelta)
// to recover exactly what ShardedEngine.HandleBatch would have observed
// around its synchronous fan-out.
type DrivenAck struct {
	HasTs     bool
	MaxTs     int64  // max in-span event time in the sub-batch
	LateDelta uint64 // window-late drops this sub-batch caused
	Late      uint64 // cumulative window-late drops for the query
	Overflow  uint64 // cumulative raw-row/join-pending overflow drops
}

// StartDriven installs a query in driven mode: effectively unbounded
// lateness, so the engine never closes a window on its own. The shard
// node of a distributed ScrubCentral runs every query this way.
func (e *Engine) StartDriven(p Plan) error {
	p.Lateness = shardLateness
	return e.startQueryDriven(p)
}

// ApplyDriven folds a sub-batch into a driven query: the same span
// filter, window routing and late accounting as HandleBatch, but with the
// stream-lease and watermark bookkeeping left out — those live at the
// coordinator, which is the only component that sees whole batches.
func (e *Engine) ApplyDriven(b transport.TupleBatch) (DrivenAck, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[b.QueryID]
	if !ok {
		return DrivenAck{}, false
	}
	if int(b.TypeIdx) >= len(qs.plan.Types) {
		return DrivenAck{}, false
	}
	if e.met != nil {
		e.met.batches.Inc()
		e.met.tuples.Add(uint64(len(b.Tuples)))
	}
	if qs.tuplesC != nil {
		qs.tuplesC.Add(uint64(len(b.Tuples)))
	}
	lateBefore := qs.win.LateDrops()
	var ack DrivenAck
	ack.MaxTs, ack.HasTs = e.applyTuples(qs, &b)
	ack.LateDelta = qs.win.LateDrops() - lateBefore
	ack.Late = qs.win.LateDrops()
	ack.Overflow = qs.overflow
	return ack, true
}

// CollectDriven closes every driven window ending at or before bound and
// returns the serialized partials, plus the query's cumulative drop
// counters as of the collect.
func (e *Engine) CollectDriven(id uint64, bound int64) (partials []EncodedPartial, late, overflow uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, exists := e.queries[id]
	if !exists {
		return nil, 0, 0, false
	}
	for _, closed := range e.closed(qs.win.ForceBefore(bound)) {
		partials = append(partials, EncodedPartial{
			Start: closed.Start, End: closed.End,
			Data: encodePartial(&qs.plan, closed.State),
		})
	}
	return partials, qs.win.LateDrops(), qs.overflow, true
}

// DrainDriven removes a driven query, returning its remaining windows as
// serialized partials and its final late+overflow drop total.
func (e *Engine) DrainDriven(id uint64) (partials []EncodedPartial, lateDrops uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, exists := e.queries[id]
	if !exists {
		return nil, 0, false
	}
	for _, closed := range e.closed(qs.win.Flush()) {
		partials = append(partials, EncodedPartial{
			Start: closed.Start, End: closed.End,
			Data: encodePartial(&qs.plan, closed.State),
		})
	}
	lateDrops = qs.win.LateDrops() + qs.overflow
	delete(e.queries, id)
	e.met.dropQuery(id)
	return partials, lateDrops, true
}

// ReplayHolding exposes the engines' shared replay-hold release decision
// to the distributed coordinator (internal/coord), which mirrors the
// in-process mergers' close logic and must release holds bit-identically.
func ReplayHolding(hold *bool, deadline int64, streams *liveness.Table, leaseNow int64) bool {
	return replayHolding(hold, deadline, streams, leaseNow)
}

// QueryRuntime is the coordinator-side merge/render handle for one query:
// the compiled plan without any engine state. It decodes shard partials,
// merges them (mergeable aggregators, bounded raw rows, moment folding),
// and renders result windows exactly like the in-process executors.
type QueryRuntime struct {
	plan Plan
	comp *compiled
}

// CompileQuery validates and compiles a plan into a runtime handle.
func CompileQuery(p Plan) (*QueryRuntime, error) {
	if err := p.fillDefaults(); err != nil {
		return nil, err
	}
	comp, err := compile(&p)
	if err != nil {
		return nil, fmt.Errorf("central: compile plan: %w", err)
	}
	if err := p.checkAggs(); err != nil {
		return nil, err
	}
	return &QueryRuntime{plan: p, comp: comp}, nil
}

// Plan returns the runtime's post-defaults plan.
func (qr *QueryRuntime) Plan() *Plan { return &qr.plan }

// PartialWindow is one decoded (or merged) window's accumulated state.
type PartialWindow struct{ ws *winState }

// Tuples returns how many tuples the partial has absorbed.
func (pw *PartialWindow) Tuples() uint64 { return pw.ws.tuples }

// Merge folds src into dst, returning the raw rows dropped because the
// merged window hit MaxRawRows. Merge order must be deterministic
// (ascending shard index) for bit-identical results.
func (qr *QueryRuntime) Merge(dst, src *PartialWindow) (dropped uint64) {
	return mergeWinStates(&qr.plan, dst.ws, src.ws)
}

// Render turns a merged window into a ResultWindow. The caller fills the
// deployment-level fields afterwards (drop totals, Degraded, Streams).
func (qr *QueryRuntime) Render(start int64, pw *PartialWindow, rates map[string]float64) transport.ResultWindow {
	return renderWindow(&qr.plan, qr.comp, start, start+int64(qr.plan.Window), pw.ws, rates)
}

// --- partial window state codec ---
//
// Deterministic layout (sorted hosts, sorted group keys) with float state
// as raw IEEE-754 bits, so decode(encode(ws)) merges and renders
// bit-identically to ws. Join-pending state is never encoded: shards
// route by request id, so both sides of a request joined on one shard,
// and pending tuples are irrelevant once the window closed.

func encodePartial(p *Plan, ws *winState) []byte {
	dst := binary.AppendUvarint(nil, ws.tuples)

	hosts := make([]string, 0, len(ws.hosts))
	for h := range ws.hosts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	dst = binary.AppendUvarint(dst, uint64(len(hosts)))
	for _, h := range hosts {
		dst = appendString(dst, h)
	}

	keys := make([]string, 0, len(ws.groups))
	for k := range ws.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		g := ws.groups[k]
		keyVals := ws.keyVals(g, len(p.GroupBy))
		dst = binary.AppendUvarint(dst, uint64(len(keyVals)))
		for _, v := range keyVals {
			dst = event.AppendValue(dst, v)
		}
		for _, ag := range ws.aggsOf(g, len(p.Aggs)) {
			enc, err := agg.AppendState(dst, ag)
			if err != nil {
				// Unreachable: every aggregator a window holds is
				// encodable. A placeholder count keeps the failure loud at
				// decode rather than silently truncating the partial.
				dst = binary.AppendUvarint(dst, 0)
				continue
			}
			dst = enc
		}
	}

	dst = binary.AppendUvarint(dst, uint64(ws.rawN))
	for _, row := range ws.rawRows(len(p.Select)) {
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		for _, v := range row {
			dst = event.AppendValue(dst, v)
		}
	}

	mhosts := make([]string, 0, len(ws.perHost))
	for h := range ws.perHost {
		mhosts = append(mhosts, h)
	}
	sort.Strings(mhosts)
	dst = binary.AppendUvarint(dst, uint64(len(mhosts)))
	for _, h := range mhosts {
		dst = appendString(dst, h)
		moments := ws.perHost[h]
		dst = binary.AppendUvarint(dst, uint64(len(moments)))
		for i := range moments {
			dst = moments[i].AppendBinary(dst)
		}
	}
	return dst
}

// DecodePartial parses a partial serialized by a shard's CollectDriven /
// DrainDriven under the same plan.
func (qr *QueryRuntime) DecodePartial(b []byte) (*PartialWindow, error) {
	p := &qr.plan
	ws := newWinState(p)
	tuples, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("central: decode partial: bad tuple count")
	}
	ws.tuples = tuples

	hostCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || hostCnt > uint64(len(b)) {
		return nil, fmt.Errorf("central: decode partial: bad host count")
	}
	n += sz
	for i := uint64(0); i < hostCnt; i++ {
		s, used, err := decodeString(b[n:])
		if err != nil {
			return nil, fmt.Errorf("central: decode partial: host: %w", err)
		}
		ws.hosts[s] = struct{}{}
		n += used
	}

	groupCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || groupCnt > uint64(len(b)) {
		return nil, fmt.Errorf("central: decode partial: bad group count")
	}
	n += sz
	for i := uint64(0); i < groupCnt; i++ {
		kvCnt, sz := binary.Uvarint(b[n:])
		if sz <= 0 || kvCnt > uint64(len(b)) {
			return nil, fmt.Errorf("central: decode partial: bad key count")
		}
		n += sz
		if kvCnt != uint64(len(p.GroupBy)) {
			return nil, fmt.Errorf("central: decode partial: %d key values for %d group-by columns", kvCnt, len(p.GroupBy))
		}
		g, keys, aggs, ok := ws.groupRuns(len(p.GroupBy), len(p.Aggs))
		if !ok {
			return nil, fmt.Errorf("central: decode partial: group state too large")
		}
		keyStart := n
		for j := range keys {
			v, used, err := event.DecodeValue(b[n:])
			if err != nil {
				return nil, fmt.Errorf("central: decode partial: key value: %w", err)
			}
			keys[j] = v
			n += used
		}
		// The group's map key is the encoding of its key values — the very
		// bytes just decoded.
		key := string(b[keyStart:n])
		for j := range aggs {
			a, used, err := ws.aggSlab.DecodeState(p.Aggs[j].Spec, b[n:])
			if err != nil {
				return nil, fmt.Errorf("central: decode partial: agg %d: %w", j, err)
			}
			aggs[j] = a
			n += used
		}
		if _, dup := ws.groups[key]; dup {
			return nil, fmt.Errorf("central: decode partial: duplicate group key")
		}
		ws.groups[key] = g
	}

	rowCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || rowCnt > uint64(len(b)) {
		return nil, fmt.Errorf("central: decode partial: bad row count")
	}
	n += sz
	for i := uint64(0); i < rowCnt; i++ {
		valCnt, sz := binary.Uvarint(b[n:])
		if sz <= 0 || valCnt > uint64(len(b)) {
			return nil, fmt.Errorf("central: decode partial: bad row width")
		}
		n += sz
		if valCnt != uint64(len(p.Select)) {
			return nil, fmt.Errorf("central: decode partial: row of %d values for %d select columns", valCnt, len(p.Select))
		}
		_, row, ok := ws.raw.Alloc(len(p.Select))
		if !ok {
			return nil, fmt.Errorf("central: decode partial: row state too large")
		}
		for j := range row {
			v, used, err := event.DecodeValue(b[n:])
			if err != nil {
				return nil, fmt.Errorf("central: decode partial: row value: %w", err)
			}
			row[j] = v
			n += used
		}
		ws.rawN++
	}

	mhostCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || mhostCnt > uint64(len(b)) {
		return nil, fmt.Errorf("central: decode partial: bad moment host count")
	}
	n += sz
	for i := uint64(0); i < mhostCnt; i++ {
		host, used, err := decodeString(b[n:])
		if err != nil {
			return nil, fmt.Errorf("central: decode partial: moment host: %w", err)
		}
		n += used
		mCnt, sz := binary.Uvarint(b[n:])
		if sz <= 0 || mCnt > uint64(len(b)) {
			return nil, fmt.Errorf("central: decode partial: bad moment count")
		}
		n += sz
		moments := make([]stats.Running, mCnt)
		for j := range moments {
			r, used, err := stats.DecodeRunning(b[n:])
			if err != nil {
				return nil, fmt.Errorf("central: decode partial: moment: %w", err)
			}
			moments[j] = r
			n += used
		}
		ws.perHost[host] = moments
	}
	if n != len(b) {
		return nil, fmt.Errorf("central: decode partial: %d trailing bytes", len(b)-n)
	}
	return &PartialWindow{ws: ws}, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(b []byte) (string, int, error) {
	ln, sz := binary.Uvarint(b)
	if sz <= 0 {
		return "", 0, fmt.Errorf("bad string length")
	}
	if uint64(len(b)-sz) < ln {
		return "", 0, fmt.Errorf("short string")
	}
	return string(b[sz : sz+int(ln)]), sz + int(ln), nil
}
