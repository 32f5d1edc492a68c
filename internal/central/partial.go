package central

import (
	"fmt"
	"sort"

	"scrub/internal/transport"
	"scrub/internal/window"
	"scrub/internal/wire"
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
// router folds the per-shard acks (OR HasTs, max MaxTs, sum the deltas)
// into the manifest the merger observes, recovering exactly what one
// shard would have reported for the whole batch.
type DrivenAck struct {
	HasTs         bool
	MaxTs         int64  // max in-span event time in the sub-batch
	LateDelta     uint64 // window-late drops this sub-batch caused
	OverflowDelta uint64 // raw-row/join-pending overflow drops this sub-batch caused
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
// counters as of the collect. A shard does not send the counters: its
// merger learns what each sub-batch cost from the sub-batch's ack.
func (e *Engine) CollectDriven(id uint64, bound int64) (partials []EncodedPartial, late, overflow uint64, ok bool) {
	closed, plan, late, overflow, ok := e.collectDriven(id, bound, false)
	return encodePartials(plan, closed), late, overflow, ok
}

// DrainDriven removes a query, returning its remaining windows as
// serialized partials.
func (e *Engine) DrainDriven(id uint64) (partials []EncodedPartial, ok bool) {
	closed, plan, _, _, ok := e.collectDriven(id, 0, true)
	return encodePartials(plan, closed), ok
}

// encodePartials serializes closed windows.
func encodePartials(p *Plan, closed []window.Closed[*winState]) []EncodedPartial {
	var out []EncodedPartial
	for _, cl := range closed {
		var c wire.Coder
		codePartial(&c, p, cl.State)
		out = append(out, EncodedPartial{Start: cl.Start, End: cl.End, Data: c.Buf})
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
// merged window hit maxRawRows. Merge order must be deterministic
// (ascending shard index) for bit-identical results.
func (qr *QueryRuntime) Merge(dst, src *PartialWindow) (dropped uint64) {
	return mergeWinStates(&qr.plan, dst.ws, src.ws)
}

// Render turns a merged window into a ResultWindow. The caller fills the
// deployment-level fields afterwards (drop totals, Degraded, Streams).
// rates is not read (a tuple's rate weighted it at apply): it stays only
// for the benchmark harness's callers.
func (qr *QueryRuntime) Render(start int64, pw *PartialWindow, rates map[string]float64) transport.ResultWindow {
	return renderWindow(&qr.plan, qr.comp, start, start+int64(qr.plan.Window), pw.ws)
}

// --- partial window state codec ---
//
// Deterministic layout (sorted hosts, sorted group keys) with float state
// as raw IEEE-754 bits, so decode(encode(ws)) merges and renders
// bit-identically to ws. Only a closed window is encoded. Join-pending
// state is never encoded: shards route by request id, so both sides of a
// request joined on one shard, and pending tuples are irrelevant once the
// window closed.

// codePartial is a partial's description: the tuple count and weight, the
// hosts that reported, each with its moments' two sums when the plan keeps
// them (Plan.moments), each group's key and aggregate states, and the raw
// rows. Decoding builds ws, a fresh window, and holds the bytes to the
// plan: no weight below its count, no host twice, as many moments per
// host as the plan keeps and no variance sum that is negative or NaN, key
// and row widths, keys and rows that decode, no group key twice.
func codePartial(c *wire.Coder, p *Plan, ws *winState) {
	decoding := c.Mode == wire.Decoding
	c.Uvarint(&ws.tuples)
	c.Uvarint(&ws.weight)
	if decoding && ws.weight < ws.tuples {
		c.Failf("weight %d below %d tuples", ws.weight, ws.tuples)
	}

	hosts := sortedKeys(ws.hosts)
	n := len(hosts)
	c.Count(&n, "implausible host count")
	for i := 0; i < n && c.Err == nil; i++ {
		var h string
		if !decoding {
			h = hosts[i]
		}
		c.Str(&h)
		if decoding && c.Err == nil {
			if _, dup := ws.hosts[h]; dup {
				c.Fail("duplicate host")
				return
			}
			ws.newMoments(h, p.moments)
		}
		if p.moments == 0 {
			continue
		}
		moments := ws.hosts[h]
		m := len(moments)
		c.Int(&m)
		if decoding && c.Err == nil && m != p.moments {
			c.Failf("%d moments for %d aggregates", m, p.moments)
			return
		}
		for j := range moments {
			c.F64(&moments[j].t)
			c.F64(&moments[j].v)
			if decoding && !(moments[j].v >= 0) {
				c.Failf("moment variance %g", moments[j].v)
			}
		}
	}

	var groups []groupRun
	if !decoding {
		groups = ws.sortedGroups()
	}
	n = len(groups)
	c.Count(&n, "implausible group count")
	if decoding && n > 0 {
		if !p.HasAgg() && !p.Grouped() {
			c.Fail("groups under a plan without aggregates")
			return
		}
		ws.groups.Grow(n) // n heads at once, not a split per group
	}
	var run []byte // decoding: a group's run, built before the window keeps it
	for i := 0; i < n && c.Err == nil; i++ {
		// The stored key is the encoding of the group's key values.
		var key []byte
		var g uint32
		if !decoding {
			key, g = groups[i].key, groups[i].ordinal
		}
		codeRun(c, &key, len(p.GroupBy), "key")
		ws.aggStates(p).Code(c, &g)
		if !decoding || c.Err != nil {
			continue
		}
		run = append(appendRoom(run[:0]), key...)
		hash := hashKey(key)
		if _, dup := ws.findGroup(hash, key); dup {
			c.Fail("duplicate group key")
		} else if !ws.addGroup(hash, run, g) {
			c.Fail("group state too large")
		}
	}

	n = ws.rawN
	c.Count(&n, "implausible row count")
	for rows, i := rowsOf(&ws.raw, len(p.Select)), 0; i < n && c.Err == nil; i++ {
		var row []byte
		if !decoding {
			row = rows.next()
		}
		codeRun(c, &row, len(p.Select), "row")
		if !decoding || c.Err != nil {
			continue
		}
		// A row is kept as it arrived.
		if _, ok := ws.raw.Append(row); !ok {
			c.Fail("row state too large")
		}
		ws.rawN++
	}

}

// codeRun codes a packed run of w values (packed.go) after its width,
// which decoding holds to w. Decoding points *run at the run where it lies
// in the input, once its values are known to decode.
func codeRun(c *wire.Coder, run *[]byte, w int, what string) {
	width, n := w, len(*run)
	c.Int(&width)
	if c.Mode == wire.Decoding && c.Err == nil {
		if width != w {
			c.Failf("%s of %d values for %d columns", what, width, w)
			return
		}
		var err error
		if n, err = packedLen(c.Rest(), w); err != nil {
			c.Failf("%s value: %v", what, err)
			return
		}
	}
	c.Raw(run, n)
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DecodePartial parses a partial serialized by a shard's CollectDriven /
// DrainDriven under the same plan. The bytes come off the wire: anything
// malformed is an error, never a panic.
func (qr *QueryRuntime) DecodePartial(b []byte) (*PartialWindow, error) {
	ws := newWinState(&qr.plan, 0)
	c := wire.Coder{Mode: wire.Decoding, Buf: b}
	codePartial(&c, &qr.plan, ws)
	if c.Err == nil && c.Pos != len(b) {
		c.Failf("%d trailing bytes", len(b)-c.Pos)
	}
	if c.Err != nil {
		return nil, fmt.Errorf("central: decode partial: %w", c.Err)
	}
	return &PartialWindow{ws: ws}, nil
}
