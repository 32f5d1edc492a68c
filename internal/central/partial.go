package central

import (
	"encoding/binary"
	"fmt"
	"sort"

	"scrub/internal/agg"
	"scrub/internal/stats"
	"scrub/internal/transport"
	"scrub/internal/window"
)

// This file is how windows leave a kernel. They close only when the
// query's merger says so (merge.go); the closed state is handed over as it
// is to an in-process merger, or serialized as a partial for one in
// another process (internal/coord), which decodes it back into the same
// shape.

// EncodedPartial is one window's serialized accumulated state, as
// it crosses the wire.
type EncodedPartial = transport.WindowPartial

// DrivenAck reports how a kernel absorbed one sub-batch. The
// router folds the per-shard acks (OR HasTs, max MaxTs, sum LateDelta)
// into the manifest the merger observes, recovering exactly what one
// shard would have reported for the whole batch.
type DrivenAck struct {
	HasTs     bool
	MaxTs     int64  // max in-span event time in the sub-batch
	LateDelta uint64 // window-late drops this sub-batch caused
	Late      uint64 // cumulative window-late drops for the query
	Overflow  uint64 // cumulative raw-row/join-pending overflow drops
}

// collectDriven closes every window ending at or before bound and
// returns them as they are, plus the query's cumulative drop counters as
// of the collect. drain removes the query as well, returning everything
// still open.
func (e *Engine) collectDriven(id uint64, bound int64, drain bool) (closed []window.Closed[*winState], plan *Plan, late, overflow uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, exists := e.queries[id]
	if !exists {
		return nil, nil, 0, 0, false
	}
	if drain {
		closed = e.closed(qs.win.Flush())
		delete(e.queries, id)
	} else {
		closed = e.closed(qs.win.ForceBefore(bound))
	}
	return closed, &qs.plan, qs.win.LateDrops(), qs.overflow, true
}

// CollectDriven closes every window ending at or before bound and
// returns the serialized partials, plus the query's cumulative drop
// counters as of the collect.
func (e *Engine) CollectDriven(id uint64, bound int64) (partials []EncodedPartial, late, overflow uint64, ok bool) {
	closed, plan, late, overflow, ok := e.collectDriven(id, bound, false)
	return encodePartials(plan, closed), late, overflow, ok
}

// DrainDriven removes a query, returning its remaining windows as
// serialized partials and its final late+overflow drop total.
func (e *Engine) DrainDriven(id uint64) (partials []EncodedPartial, lateDrops uint64, ok bool) {
	closed, plan, late, overflow, ok := e.collectDriven(id, 0, true)
	return encodePartials(plan, closed), late + overflow, ok
}

// encodePartials serializes closed windows.
func encodePartials(p *Plan, closed []window.Closed[*winState]) []EncodedPartial {
	var out []EncodedPartial
	for _, c := range closed {
		out = append(out, EncodedPartial{Start: c.Start, End: c.End, Data: encodePartial(nil, p, c.State)})
	}
	return out
}

// QueryRuntime is the compiled plan without any window state: what kernel
// and merger both keep per query, and the handle through which a client of
// a remote shard decodes that shard's partials. Merge and Render expose the
// merger's own steps over decoded partials.
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
// bit-identically to ws. Only a closed window is encoded. Join-pending
// state is never encoded: shards route by request id, so both sides of a
// request joined on one shard, and pending tuples are irrelevant once the
// window closed.

// encodePartial appends ws's partial to dst.
func encodePartial(dst []byte, p *Plan, ws *winState) []byte {
	dst = binary.AppendUvarint(dst, ws.tuples)

	hosts := make([]string, 0, len(ws.hosts))
	for h := range ws.hosts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	dst = binary.AppendUvarint(dst, uint64(len(hosts)))
	for _, h := range hosts {
		dst = appendString(dst, h)
	}

	groups := ws.sortedGroups()
	dst = binary.AppendUvarint(dst, uint64(len(groups)))
	for _, g := range groups {
		// The stored key is the encoding of the group's key values.
		dst = binary.AppendUvarint(dst, uint64(len(p.GroupBy)))
		dst = append(dst, g.key()...)
		for i := range p.Aggs {
			enc, err := agg.AppendState(dst, ws.aggs.At(g.ordinal(), i))
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
	for rows, i := rowsOf(&ws.raw, len(p.Select)), 0; i < ws.rawN; i++ {
		dst = binary.AppendUvarint(dst, uint64(len(p.Select)))
		dst = append(dst, rows.next()...)
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
// DrainDriven under the same plan. The bytes come off the wire: anything
// malformed is an error, never a panic.
func (qr *QueryRuntime) DecodePartial(b []byte) (_ *PartialWindow, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("central: decode partial: %w", err)
		}
	}()
	p := &qr.plan
	ws := newWinState(p, 0)
	var run []byte // a group's run, built before the window keeps it
	tuples, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("bad tuple count")
	}
	ws.tuples = tuples

	hostCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || hostCnt > uint64(len(b)) {
		return nil, fmt.Errorf("bad host count")
	}
	n += sz
	for i := uint64(0); i < hostCnt; i++ {
		s, used, err := decodeString(b[n:])
		if err != nil {
			return nil, fmt.Errorf("host: %w", err)
		}
		ws.hosts[s] = struct{}{}
		n += used
	}

	groupCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || groupCnt > uint64(len(b)) {
		return nil, fmt.Errorf("bad group count")
	}
	n += sz
	if groupCnt > 0 {
		ws.groups.Grow(int(groupCnt)) // once, not by doubling up to it
	}
	for i := uint64(0); i < groupCnt; i++ {
		kvCnt, sz := binary.Uvarint(b[n:])
		if sz <= 0 || kvCnt > uint64(len(b)) {
			return nil, fmt.Errorf("bad key count")
		}
		n += sz
		if kvCnt != uint64(len(p.GroupBy)) {
			return nil, fmt.Errorf("%d key values for %d group-by columns", kvCnt, len(p.GroupBy))
		}
		// The group's stored key is the encoding of its key values —
		// these very bytes, once they are known to decode.
		used, err := packedLen(b[n:], len(p.GroupBy))
		if err != nil {
			return nil, fmt.Errorf("key value: %w", err)
		}
		run = append(appendHeader(run[:0], groupHdr), b[n:n+used]...)
		n += used
		g, used, err := ws.aggStates(p).Decode(b[n:])
		if err != nil {
			return nil, err
		}
		n += used
		hash := hashKey(run[groupHdr:])
		if _, dup := ws.findGroup(hash, run[groupHdr:]); dup {
			return nil, fmt.Errorf("duplicate group key")
		}
		if !ws.addGroup(hash, run, g) {
			return nil, fmt.Errorf("group state too large")
		}
	}

	rowCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || rowCnt > uint64(len(b)) {
		return nil, fmt.Errorf("bad row count")
	}
	n += sz
	for i := uint64(0); i < rowCnt; i++ {
		valCnt, sz := binary.Uvarint(b[n:])
		if sz <= 0 || valCnt > uint64(len(b)) {
			return nil, fmt.Errorf("bad row width")
		}
		n += sz
		if valCnt != uint64(len(p.Select)) {
			return nil, fmt.Errorf("row of %d values for %d select columns", valCnt, len(p.Select))
		}
		// A row is kept as it arrived, once it is known to decode.
		used, err := packedLen(b[n:], len(p.Select))
		if err != nil {
			return nil, fmt.Errorf("row value: %w", err)
		}
		if _, ok := ws.raw.Append(b[n : n+used]); !ok {
			return nil, fmt.Errorf("row state too large")
		}
		n += used
		ws.rawN++
	}

	mhostCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || mhostCnt > uint64(len(b)) {
		return nil, fmt.Errorf("bad moment host count")
	}
	n += sz
	for i := uint64(0); i < mhostCnt; i++ {
		host, used, err := decodeString(b[n:])
		if err != nil {
			return nil, fmt.Errorf("moment host: %w", err)
		}
		n += used
		mCnt, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, fmt.Errorf("bad moment count")
		}
		n += sz
		if mCnt != uint64(len(p.Aggs)) {
			return nil, fmt.Errorf("%d moments for %d aggregates", mCnt, len(p.Aggs))
		}
		moments := make([]stats.Running, mCnt)
		for j := range moments {
			r, used, err := stats.DecodeRunning(b[n:])
			if err != nil {
				return nil, fmt.Errorf("moment: %w", err)
			}
			moments[j] = r
			n += used
		}
		ws.perHost[host] = moments
	}
	if n != len(b) {
		return nil, fmt.Errorf("%d trailing bytes", len(b)-n)
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
