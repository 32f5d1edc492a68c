package central

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"slices"

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
// only pointers in the slabs are that string's and a sketch's. What is
// looked up — a request id's buffered tuples, a key's group — is found through
// bucket heads whose collision chains run through the stored runs
// themselves (slab.Index): no map, cell or record indexes them. The set is
// owned by the window and nothing is pooled across windows: it is dropped
// once the window's result has been emitted (or its partial handed over).
// DESIGN.md §17.
type winState struct {
	// tuples counts the tuples applied to the window, weight sums their
	// weights (tupleWeight): the two differ where the governor stepped in.
	tuples, weight uint64
	// hosts is the window's one table of the hosts that reported: what
	// HostsReporting counts, and each host's reading moments per aggregate
	// for the Eq. 1–3 error bounds. A host's moments are nil unless the
	// plan keeps them (Plan.moments): an ungrouped plan with a scalable
	// aggregate.
	hosts map[string][]moment
	// lastHost and lastMoments remember the previous tuple's host: a batch
	// comes from one host, so hosts is consulted once per (batch, window)
	// rather than once per tuple.
	lastHost    string
	lastMoments []moment

	// Join-pending state: arena holds one run per buffered tuple —
	// [link] [request id, 8 bytes] [(event time − start)<<1 | side,
	// uvarint] [the side's projected columns, packed] — threaded by join
	// on hashID(id)<<1 | side: a request's two sides have neighbouring
	// buckets, in one cache line, and a chain holds one side's runs only.
	// The run is the whole hash-table entry: a probe walks the other
	// side's chain and keeps the runs whose id is its own. start is the
	// window's start.
	arena slab.Arena
	join  slab.Index
	start int64
	pendN int // buffered tuples: the maxJoinPending bound and the gauge

	// Group state: groupRuns holds one run per group — [link] [the
	// group's ordinal in aggs, 4 bytes] [the key values' wire form, keyW
	// of them] — threaded by groups on the key bytes, which are all that
	// is kept of the key. aggs holds every group's aggregate states, found
	// from the ordinal by arithmetic (agg.Slab); it is nil until the
	// window's first group, so a window without groups — raw rows, a join
	// still waiting — pays a word for it.
	groupRuns slab.Arena
	groups    slab.Index
	keyW      int
	aggs      *agg.Slab

	// raw holds the rows of a non-aggregate query, each a packed run of
	// len(Plan.Select) values; rawN counts them.
	raw  slab.Arena
	rawN int

	// charged is what the window currently contributes to the
	// scrub_central_state_bytes gauge.
	charged int64
}

// moment is one host's readings of one aggregate in a window, and w, the
// summed weight of the tuples they came from.
type moment struct {
	stats.Running
	w uint64
}

// add folds a reading of a tuple of weight w.
func (m *moment) add(x float64, w uint64) {
	m.Running.Add(x)
	m.w += w
}

// groupHdr is what precedes the key in a group's run: the link and the
// group's ordinal in aggs.
const groupHdr = slab.LinkSize + 4

// hashSeed is drawn once per process, so no input can be built to land in
// one bucket. Nothing's order depends on a hash: a chain is searched by
// key, and what is rendered or serialized is sorted by key bytes first.
var hashSeed = rand.Uint64()

// mix folds the 128-bit product of x and a constant: every bit of the
// result depends on every bit of x.
func mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// hashID hashes a request id for the join indexes.
func hashID(id uint64) uint64 { return mix(id ^ hashSeed) }

// hashKey hashes an encoded group key for the group index, a word at a
// time: a key is a few bytes, and a general-purpose byte hash costs more
// in setting up than in hashing them. The words are taken from the end: a
// key has just been written and usually ends in a numeric value's 8
// bytes, and a load that straddles two stores waits for both to retire.
func hashKey(key []byte) uint64 {
	h := hashSeed ^ uint64(len(key))
	for ; len(key) >= 8; key = key[:len(key)-8] {
		h = mix(h ^ binary.LittleEndian.Uint64(key[len(key)-8:]))
	}
	var head uint64
	for i, b := range key {
		head |= uint64(b) << (8 * i)
	}
	return mix(h ^ head)
}

// rethreadJoin doubles the join index and threads every buffered tuple
// again, in arrival order — the arena's.
//
//scrub:allowalloc(the heads array doubles: amortised over the tuples buffered since the last doubling)
func (ws *winState) rethreadJoin(p *Plan) {
	ws.join.Grow(0)
	for k, chunk := range ws.arena.Chunks() {
		for off := 0; off < len(chunk); {
			run := chunk[off+slab.LinkSize:]
			tag, n := binary.Uvarint(run[8:])
			w, err := packedLen(run[8+n:], len(p.Columns[tag&1]))
			if err != nil {
				panic(corruptRun + err.Error())
			}
			ws.join.Insert(&ws.arena, slab.Addr(k, off), hashID(binary.LittleEndian.Uint64(run))<<1|tag&1)
			off += slab.LinkSize + 8 + n + w
		}
	}
}

func newWinState(p *Plan, start int64) *winState {
	return &winState{
		hosts: make(map[string][]moment),
		start: start,
		keyW:  len(p.GroupBy),
	}
}

// touch records that host contributed to the window, giving a new host
// the moments the plan keeps (Plan.moments), and makes them lastMoments,
// the ones the current tuple's readings fold into. (The length test covers
// a fresh window whose first tuple carries the empty host id.)
func (ws *winState) touch(host string, moments int) {
	if ws.lastHost != host || len(ws.hosts) == 0 {
		m, ok := ws.hosts[host]
		if !ok {
			m = ws.newMoments(host, moments)
		}
		ws.lastHost, ws.lastMoments = host, m
	}
}

// newMoments enters host in the table with n empty moments (nil for 0).
func (ws *winState) newMoments(host string, n int) []moment {
	var m []moment
	if n > 0 {
		//scrub:allowalloc(once per host and window)
		m = make([]moment, n)
	}
	ws.hosts[host] = m
	return m
}

// findGroup returns the ordinal of the group whose encoded key is key
// (hashKey(key) == hash). The stored key is compared in place: an encoding
// of keyW values is self-delimiting, so none is a proper prefix of another
// and a prefix match is equality.
//
//scrub:hotpath
func (ws *winState) findGroup(hash uint64, key []byte) (uint32, bool) {
	for link := ws.groups.Head(hash); link != 0; {
		run, next := ws.groupRuns.Linked(link)
		if bytes.HasPrefix(run[groupHdr-slab.LinkSize:], key) {
			return binary.LittleEndian.Uint32(run), true
		}
		link = next
	}
	return 0, false
}

// addGroup records the group of ordinal g. run is the group's run with the
// groupHdr bytes reserved and the encoded key behind them; it is copied. It
// fails only when the arena is out of addresses.
func (ws *winState) addGroup(hash uint64, run []byte, g uint32) bool {
	binary.LittleEndian.PutUint32(run[slab.LinkSize:], g)
	at, ok := ws.groupRuns.Append(run)
	if !ok {
		return false
	}
	if ws.groups.Full() {
		ws.rethreadGroups() // threads the new run too
	} else {
		ws.groups.Insert(&ws.groupRuns, at, hash)
	}
	return true
}

// rethreadGroups doubles the group index and threads every group again,
// in the order the groups were opened.
func (ws *winState) rethreadGroups() {
	ws.groups.Grow(0)
	for runs := ws.groupsInOrder(); ; {
		g := groupRun(runs.next())
		if g == nil {
			return
		}
		ws.groups.Insert(&ws.groupRuns, runs.at, hashKey(g.key()))
	}
}

// aggStates returns the window's aggregate states, making the slab for
// the first group.
func (ws *winState) aggStates(p *Plan) *agg.Slab {
	if ws.aggs == nil {
		ws.aggs = agg.NewSlab(p.aggLayout)
	}
	return ws.aggs
}

// openGroup starts a group (run as for addGroup) with empty aggregate
// states and returns its ordinal. It fails only when a slab has outgrown
// its uint32 addresses.
//
//scrub:allowalloc(a new group's aggregate states: carved from slabs whose chunk growth is amortised; sketches are allocated one by one)
func (ws *winState) openGroup(p *Plan, hash uint64, run []byte) (uint32, bool) {
	g, ok := ws.aggStates(p).Open()
	return g, ok && ws.addGroup(hash, run, g)
}

// groupRun is one group's run as render, codePartial and merge read it,
// in place.
type groupRun []byte

// key is the group's encoded key.
func (g groupRun) key() []byte { return g[groupHdr:] }

// ordinal is the group's ordinal in the window's aggregate states.
func (g groupRun) ordinal() uint32 { return binary.LittleEndian.Uint32(g[slab.LinkSize:]) }

// groupsInOrder walks the window's group runs in the order the groups
// were opened.
func (ws *winState) groupsInOrder() packedRows {
	return packedRows{chunks: ws.groupRuns.Chunks(), hdr: groupHdr, w: ws.keyW}
}

// sortedGroups lists the window's groups ordered by encoded key — the one
// deterministic order results and partials are built in.
func (ws *winState) sortedGroups() []groupRun {
	out := make([]groupRun, 0, ws.groups.Len())
	for runs := ws.groupsInOrder(); ; {
		run := runs.next()
		if run == nil {
			break
		}
		out = append(out, run)
	}
	slices.SortFunc(out, func(a, b groupRun) int { return bytes.Compare(a.key(), b.key()) })
	return out
}

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

// slabBytes is the capacity of the window's slabs, arenas, index heads and
// sketches in bytes — what the scrub_central_state_bytes gauge counts: all
// of the window's state but the host table.
func (ws *winState) slabBytes() int64 {
	return ws.arena.Bytes() + ws.join.Bytes() +
		ws.groupRuns.Bytes() + ws.groups.Bytes() + ws.aggs.Bytes() +
		ws.raw.Bytes()
}
