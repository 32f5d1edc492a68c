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
// nothing, and the collector has few pointers to trace in it. The set is
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

	// arena holds every retained column value of the window — buffered
	// join tuples' columns and group keys — as runs addressed by the index
	// of their first value.
	arena slab.Slab[event.Value]

	// Join-pending state: request id → cell → per-side chain of buffered
	// tuples in arrival order. Arrival order is what the per-side slices
	// of the earlier layout gave, and the order in which joined rows are
	// folded into float sums must not change.
	pending map[uint64]uint32 // request id → index into cells
	cells   slab.Slab[pendCell]
	pend    slab.Slab[pendTuple]
	pendN   int // buffered tuples: the MaxJoinPending bound and the gauge

	// Group state: encoded key → group: key values in the arena and
	// len(Plan.Aggs) consecutive aggregators in aggs. Scalar aggregator
	// states are carved from aggSlab; sketches are allocated one by one.
	groups  map[string]group
	aggs    slab.Slab[agg.Aggregator]
	aggSlab agg.Slab

	// raw holds the rows of a non-aggregate query, each a run of
	// len(Plan.Select) values; rawN counts them.
	raw  slab.Slab[event.Value]
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

// pendTuple is one buffered join tuple: its event time, the arena index
// of its retained columns (as many as the plan projects for its side) and
// the link to the next tuple of the same request id and side.
type pendTuple struct {
	ts     int64
	valOff uint32
	next   uint32
}

type group struct {
	keyOff uint32 // the key values' run in arena
	aggOff uint32 // the aggregators' run in aggs
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
		ws.groups = make(map[string]group)
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

// groupRuns hands out the arena and aggregator runs of a group about to
// be added; the caller fills them and stores the group under its key. It
// fails only when a slab has outgrown its uint32 indices (the runs handed
// out by then stay unused).
func (ws *winState) groupRuns(nk, na int) (g group, keys []event.Value, aggs []agg.Aggregator, ok bool) {
	var okAggs bool
	g.keyOff, keys, ok = ws.arena.Alloc(nk)
	g.aggOff, aggs, okAggs = ws.aggs.Alloc(na)
	return g, keys, aggs, ok && okAggs
}

// openGroup starts a group with fresh aggregators.
func (ws *winState) openGroup(p *Plan, key string, keyVals []event.Value) (group, bool) {
	g, keys, aggs, ok := ws.groupRuns(len(keyVals), len(p.Aggs))
	if !ok {
		return g, false
	}
	copy(keys, keyVals)
	for i, a := range p.Aggs {
		ag, err := ws.aggSlab.New(a.Spec)
		if err != nil {
			// Specs are validated at StartQuery; if one fails anyway the
			// group is refused, not left an aggregator short.
			return g, false
		}
		aggs[i] = ag
	}
	ws.groups[key] = g
	return g, true
}

// keyVals returns a group's key values (nk of them).
func (ws *winState) keyVals(g group, nk int) []event.Value { return ws.arena.Run(g.keyOff, nk) }

// aggsOf returns a group's aggregators (na of them).
func (ws *winState) aggsOf(g group, na int) []agg.Aggregator { return ws.aggs.Run(g.aggOff, na) }

// rawRows returns the window's raw rows, each a slice of the raw slab.
func (ws *winState) rawRows(width int) [][]event.Value {
	if ws.rawN == 0 {
		return nil
	}
	return ws.raw.Runs(width, ws.rawN)
}

// slabBytes is the capacity of the window's slabs in bytes — what the
// scrub_central_state_bytes gauge counts. The maps and the sketches are
// not slabs and are not counted.
func (ws *winState) slabBytes() int64 {
	return ws.arena.Bytes() + ws.raw.Bytes() + ws.cells.Bytes() + ws.pend.Bytes() +
		ws.aggs.Bytes() + ws.aggSlab.Bytes()
}
