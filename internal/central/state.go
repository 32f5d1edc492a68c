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
	// HostsReporting counts, and each host's moments per aggregate for
	// the Eq. 1–3 error bounds. A host's moments are nil unless the
	// plan keeps them (Plan.moments): an ungrouped plan with a scalable
	// aggregate.
	hosts map[string][]moment
	// lastHost and lastMoments remember the previous tuple's host: a batch
	// comes from one host, so hosts is consulted once per (batch, window)
	// rather than once per tuple.
	lastHost    string
	lastMoments []moment

	// Join-pending state: arena holds one run per buffered tuple —
	// [the index's header over tag<<2 | ref<<1 | side] [request id, 8
	// bytes | ref, 4 bytes] [the side's projected columns, packed] —
	// threaded by join on hashID(id)<<1 | side: a request's two sides have
	// neighbouring buckets, in one cache line, and a chain holds one
	// side's runs only. The run is the whole hash-table entry, and it
	// keeps only the header its chain cannot supply: the index's header
	// holds a link only when the run's bucket held a run already
	// (slab.Index). A run whose probe found partners holds, instead of its
	// request id, the address of a partner run that holds the id inline (ref):
	// reading an id takes at most one hop. The tag is (w − 1)·span +
	// event time − start, span being the side's compiled.span: the window
	// length when the plan reads that side's ts, so the tuple's weight w
	// sits above its event time, which lies inside the window, and weight
	// 1 costs no byte; 0 when it does not, so the tag is w − 1 and the
	// time is not kept (one byte up to weight 16, two up to the governor's
	// 64). A probe walks the other side's chain and keeps the runs whose
	// id is its own. start is the window's start.
	// A string column the window already holds inline is packed as a
	// one-byte ref to that copy, through strs (packJoin): nil until the
	// window's first buffered string, then 64 write-once slots, each the
	// arena address + 1 of an inline string under the top byte of its
	// hash, 0 while free.
	arena slab.Arena
	join  slab.Index
	strs  *[strSlots]uint32
	start int64
	pendN int // buffered tuples: the maxJoinPending bound and the gauge

	// Group state: groupRuns holds one run per group — [the index's
	// header over the group's ordinal in aggs] [the key values' wire form,
	// keyW of them] — threaded by groups on the key bytes, which are all
	// that is kept of the key. aggs holds every group's aggregate states,
	// found from the ordinal by arithmetic (agg.Slab); it is nil until the
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

// moment is one host's Horvitz–Thompson sums of one aggregate in a
// window: t = Σ w·x and v = Σ w·(w−q)·x² over its readings x, of tuples
// of weight w at plan rate q. A tuple was kept with probability q/w, so
// t/q is the host's estimated total and v/q² that estimate's unbiased
// variance (computeBounds).
type moment struct{ t, v float64 }

// add folds a reading x of a tuple of weight w at plan rate q. A tuple
// kept for certain (w = q = 1) adds no variance.
func (m *moment) add(x, w, q float64) {
	m.t += w * x
	if w > q {
		m.v += (w - q) * x * (w * x)
	}
}

// groupRoom is the room a group's key is encoded behind: a new group's
// run header, over an ordinal below 2^32, is written into its end.
const groupRoom = binary.MaxVarintLen32 + slab.LinkSize

// appendRoom appends groupRoom zero bytes to dst.
func appendRoom(dst []byte) []byte {
	var zero [groupRoom]byte
	return append(dst, zero[:]...)
}

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

// The owner's bits of a join run's header (winState.arena has the
// layout): its side and whether it holds a ref, below its tag.
const (
	runSide  = 1 << iota // the run's side
	runRef               // it holds a partner's address, not its request id
	runFlags = iota      // the tag's shift
)

// joinCols is where the columns of a join run with header h begin: behind
// its request id, or the 4-byte ref that stands for it.
func joinCols(h slab.Header) int { return h.Len + 8 - 4*int(h.Bits&runRef/runRef) }

// holder is the link to the run that holds run b's request id inline:
// link, b's own, or the partner b refers to.
func holder(b []byte, h slab.Header, link uint32) uint32 {
	if h.Bits&runRef != 0 {
		return binary.LittleEndian.Uint32(b[h.Len:]) + 1
	}
	return link
}

// requestID returns the request id of run b: inline, or one hop away in
// the partner it refers to, which holds it inline.
func (ws *winState) requestID(b []byte, h slab.Header) uint64 {
	if h.Bits&runRef != 0 {
		return ws.heldID(binary.LittleEndian.Uint32(b[h.Len:]))
	}
	return binary.LittleEndian.Uint64(b[h.Len:])
}

// heldID is the request id the run at address at holds inline.
func (ws *winState) heldID(at uint32) uint64 {
	b := ws.arena.Tail(at)
	return binary.LittleEndian.Uint64(b[slab.ParseHeader(b).Len:])
}

// joinHash is the hash a join run is threaded on, for the index's split.
func (ws *winState) joinHash(b []byte, h slab.Header) uint64 {
	return hashID(ws.requestID(b, h))<<1 | h.Bits&runSide
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
		run := ws.groupRuns.Tail(link - 1)
		h := slab.ParseHeader(run)
		if bytes.HasPrefix(run[h.Len:], key) {
			return uint32(h.Bits), true
		}
		link = h.Next
	}
	return 0, false
}

// addGroup records the group of ordinal g. buf is its encoded key behind
// groupRoom bytes; the run is copied. It fails only when the arena is out
// of addresses.
func (ws *winState) addGroup(hash uint64, buf []byte, g uint32) bool {
	if ws.groups.Full() {
		// First: whether the run holds a link depends on the bucket it is
		// threaded into.
		ws.groups.Split(&ws.groupRuns, ws.groupHash)
	}
	var room [groupRoom]byte
	hdr := ws.groups.AppendHeader(room[:0], hash, uint64(g))
	run := buf[groupRoom-len(hdr):]
	copy(run, hdr)
	at, ok := ws.groupRuns.Append(run)
	if ok {
		ws.groups.Insert(at, hash)
	}
	return ok
}

// groupHash is the hash a group run is threaded on, for the index's split.
func (ws *winState) groupHash(run []byte, h slab.Header) uint64 {
	key := run[h.Len:]
	n, err := packedLen(key, ws.keyW)
	if err != nil {
		panic(corruptRun + err.Error())
	}
	return hashKey(key[:n])
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

// groupRun is one group as render, codePartial and merge read it: its
// encoded key, in place in its run, and its ordinal in the window's
// aggregate states. The header is parsed once, not in each comparison of
// sortedGroups: parsing it there tripled the sort's cost (M48).
type groupRun struct {
	key     []byte
	ordinal uint32
}

// groupOf parses a group's run.
func groupOf(run []byte) groupRun {
	h := slab.ParseHeader(run)
	return groupRun{key: run[h.Len:], ordinal: uint32(h.Bits)}
}

// groupsInOrder walks the window's group runs in the order the groups
// were opened.
func (ws *winState) groupsInOrder() packedRows {
	return packedRows{chunks: ws.groupRuns.Chunks(), threaded: true, w: ws.keyW}
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
		out = append(out, groupOf(run))
	}
	slices.SortFunc(out, func(a, b groupRun) int { return bytes.Compare(a.key, b.key) })
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

// slabBytes is the capacity of the window's slabs, arenas, index heads,
// string slots and sketches in bytes — what the scrub_central_state_bytes
// gauge counts: all of the window's state but the host table.
func (ws *winState) slabBytes() int64 {
	n := ws.arena.Bytes() + ws.join.Bytes() +
		ws.groupRuns.Bytes() + ws.groups.Bytes() + ws.aggs.Bytes() +
		ws.raw.Bytes()
	if ws.strs != nil {
		n += 4 * strSlots
	}
	return n
}
