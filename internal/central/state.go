package central

import (
	"scrub/internal/agg"
	"scrub/internal/event"
	"scrub/internal/slab"
	"scrub/internal/stats"
)

// winState is everything one open window holds, laid out as one slab set
// instead of one heap object per buffered tuple, group and row: chunked
// slabs (internal/slab) whose entries refer to each other by uint32 index, so a
// window costs a few allocations per thousand items, growing it copies
// nothing, and the collector has few pointers to trace in it. Column
// values are kept in their wire form (packed.go), not as event.Value
// cells: no Value outlives the apply of the tuple it came from (a string
// MIN/MAX's running best is the one exception — agg.extremeAgg), and the
// only pointers in the slabs are the aggregator interfaces. The set is
// owned by the window and dropped whole once its result has been emitted
// (or its partial serialized); nothing is pooled across windows.
// DESIGN.md §17.
type winState struct {
	tuples uint64
	hosts  map[string]struct{}
	// perHost tracks per-host reading moments per aggregate for the
	// Eq. 1–3 error bounds; only maintained for ungrouped scalable
	// aggregates under sampling.
	perHost map[string][]stats.Running
	// lastHost and lastMoments remember the previous tuple's host: a batch
	// comes from one host, so hosts and perHost are consulted once per
	// (batch, window) rather than once per tuple.
	lastHost    string
	lastMoments []stats.Running

	// arena holds the buffered join tuples' retained columns: per tuple a
	// packed run of as many values as the plan projects for its side.
	arena slab.Arena

	// Join-pending state: request id → cell → per-side chain of buffered
	// tuples in arrival order. Arrival order is what the per-side slices
	// of the earlier layout gave, and the order in which joined rows are
	// folded into float sums must not change.
	pending map[uint64]uint32 // request id → index into cells
	cells   slab.Slab[pendCell]
	pend    slab.Slab[pendTuple]
	pendN   int // buffered tuples: the MaxJoinPending bound and the gauge

	// Group state: encoded key → the group's run of len(Plan.Aggs)
	// consecutive aggregators in aggs. The map key is the key values' wire
	// form, which is all that is kept of them. Scalar aggregator states are
	// carved from aggSlab; sketches are allocated one by one.
	groups  map[string]uint32
	aggs    slab.Slab[agg.Aggregator]
	aggSlab agg.Slab

	// raw holds the rows of a non-aggregate query, each a packed run of
	// len(Plan.Select) values; rawN counts them.
	raw  slab.Arena
	rawN int

	// charged is what the window currently contributes to the
	// scrub_central_state_bytes gauge.
	charged int64
}

// pendCell heads the two per-side chains of one request id. Links are
// pend indices plus one; 0 means none.
type pendCell struct {
	head, tail [2]uint32
}

// pendTuple is one buffered join tuple: its event time, the arena address
// of its retained columns (unused when the plan projects none for its
// side) and the link to the next tuple of the same request id and side.
type pendTuple struct {
	ts     int64
	valOff uint32
	next   uint32
}

func newWinState(p *Plan) *winState {
	ws := &winState{
		hosts:   make(map[string]struct{}),
		perHost: make(map[string][]stats.Running),
	}
	if p.IsJoin() {
		ws.pending = make(map[uint64]uint32)
	}
	if p.HasAgg() || p.Grouped() {
		ws.groups = make(map[string]uint32)
	}
	return ws
}

// touch records that host contributed to the window. (The length test
// covers a fresh window whose first tuple carries the empty host id.)
func (ws *winState) touch(host string) {
	if ws.lastHost != host || len(ws.hosts) == 0 {
		ws.hosts[host] = struct{}{}
		ws.lastHost = host
		ws.lastMoments = nil
	}
}

// momentsOf returns the host's per-aggregate moments, creating them on
// first use. touch(host) must have been called for the current tuple.
func (ws *winState) momentsOf(host string, aggs int) []stats.Running {
	if ws.lastMoments == nil {
		m := ws.perHost[host]
		if m == nil {
			m = make([]stats.Running, aggs)
			ws.perHost[host] = m
		}
		ws.lastMoments = m
	}
	return ws.lastMoments
}

// openGroup starts a group with fresh aggregators and returns them. It
// fails only when the aggregator slab has outgrown its uint32 indices.
func (ws *winState) openGroup(p *Plan, key string) ([]agg.Aggregator, bool) {
	off, aggs, ok := ws.aggs.Alloc(len(p.Aggs))
	if !ok {
		return nil, false
	}
	for i, a := range p.Aggs {
		ag, err := ws.aggSlab.New(a.Spec)
		if err != nil {
			// Specs are validated at StartQuery; if one fails anyway the
			// group is refused, not left an aggregator short.
			return nil, false
		}
		aggs[i] = ag
	}
	ws.groups[key] = off
	return aggs, true
}

// aggsAt returns the na aggregators of the group whose run starts at off.
func (ws *winState) aggsAt(off uint32, na int) []agg.Aggregator { return ws.aggs.Run(off, na) }

// rawRows materialises the window's raw rows as values that own their
// memory, all rows in one backing array.
func (ws *winState) rawRows(width int) [][]event.Value {
	if ws.rawN == 0 {
		return nil
	}
	vals := make([]event.Value, ws.rawN*width)
	out := make([][]event.Value, 0, ws.rawN)
	for rows := rowsOf(&ws.raw, width); len(vals) > 0 && rows.unpack(vals[:width]); vals = vals[width:] {
		out = append(out, vals[:width:width])
	}
	return out
}

// slabBytes is the capacity of the window's slabs in bytes — what the
// scrub_central_state_bytes gauge counts. The maps and the sketches are
// not slabs and are not counted.
func (ws *winState) slabBytes() int64 {
	return ws.arena.Bytes() + ws.raw.Bytes() + ws.cells.Bytes() + ws.pend.Bytes() +
		ws.aggs.Bytes() + ws.aggSlab.Bytes()
}
