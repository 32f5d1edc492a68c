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
	// [tag<<3 | ref<<2 | linked<<1 | side, uvarint] [link, if linked]
	// [request id, 8 bytes | ref, 4 bytes] [the side's projected columns,
	// packed] — threaded by join on hashID(id)<<1 | side: a request's two
	// sides have neighbouring buckets, in one cache line, and a chain holds
	// one side's runs only. The run is the whole hash-table entry, and it
	// keeps only the header its chain cannot supply (joinHdr). A run whose
	// bucket was empty when it was threaded holds no link: the index grows
	// by splitting one bucket at a time, a split never merges two chains
	// and splitJoin threads a chain again oldest first, so nothing threaded
	// before it ever shares its bucket, and it stays its chain's last run.
	// A run whose probe found partners holds, instead of its request id,
	// the address of a partner run that holds the id inline (ref):
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

// The bits below a join run's tag (winState.arena has the layout).
const (
	runSide   = 1 << iota // the run's side
	runLinked             // it holds a link to the run threaded before it
	runRef                // it holds a partner's address, not its request id
	runFlags  = iota      // the tag's shift
)

// parseJoin reads the flags as lengths: a link is 2·runLinked bytes and a
// ref runRef bytes shorter than a request id. Either side of each equality
// going negative fails the build.
var (
	_ [2*runLinked - slab.LinkSize]struct{}
	_ [slab.LinkSize - 2*runLinked]struct{}
	_ [runRef - (8 - slab.LinkSize)]struct{}
	_ [8 - slab.LinkSize - runRef]struct{}
)

// joinHdr is a buffered join run's header, parsed: its flags, and where
// its link (0: it has none), its id field and its columns begin. The tag
// is read only where it is used: binary.Uvarint(run) >> runFlags.
type joinHdr struct {
	flags          byte
	link, id, cols int
}

// parseJoin parses the header of the join run at the head of b. The flags
// are the low bits of the uvarint's first byte, and they are the lengths:
// a link takes 4 bytes = 2·runLinked, and a ref 4 bytes fewer than a
// request id's 8 = runRef.
func parseJoin(b []byte) joinHdr {
	n := 1
	for b[n-1] >= 0x80 {
		n++
	}
	f := b[0] & (runSide | runLinked | runRef)
	h := joinHdr{flags: f, id: n + 2*int(f&runLinked)}
	if f&runLinked != 0 {
		h.link = n
	}
	h.cols = h.id + 8 - int(f&runRef)
	return h
}

// next is the link to the run threaded before run b in its chain, 0 at the
// chain's end.
func (h joinHdr) next(b []byte) uint32 {
	if h.link == 0 {
		return 0
	}
	return binary.LittleEndian.Uint32(b[h.link:])
}

// holder is the link to the run that holds run b's request id inline:
// link, b's own, or the partner b refers to.
func (h joinHdr) holder(b []byte, link uint32) uint32 {
	if h.flags&runRef != 0 {
		return binary.LittleEndian.Uint32(b[h.id:]) + 1
	}
	return link
}

// requestID returns the request id of run b: inline, or one hop away in
// the partner it refers to, which holds it inline.
func (ws *winState) requestID(b []byte, h joinHdr) uint64 {
	if h.flags&runRef != 0 {
		return ws.heldID(binary.LittleEndian.Uint32(b[h.id:]))
	}
	return binary.LittleEndian.Uint64(b[h.id:])
}

// heldID is the request id the run at address at holds inline.
func (ws *winState) heldID(at uint32) uint64 {
	b := ws.arena.Tail(at)
	return binary.LittleEndian.Uint64(b[parseJoin(b).id:])
}

// splitJoin splits one bucket of the join index (slab.Index.Split) and
// threads the runs of its chain again, oldest first, each into the bucket
// its hash now picks, writing each linked run's link. The chain's one
// linkless run is its oldest: it is threaded first into its new bucket
// and stays that chain's last.
//
//scrub:allowalloc(a bucket's head: the heads take a chunk every 256 buckets; a chain longer than the scratch)
func (ws *winState) splitJoin() {
	var scratch [16]uint32
	chain := scratch[:0]
	for link := ws.join.Split(); link != 0; {
		chain = append(chain, link)
		b := ws.arena.Tail(link - 1)
		link = parseJoin(b).next(b)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		at := chain[i] - 1
		b := ws.arena.Tail(at)
		h := parseJoin(b)
		next := ws.join.Reinsert(at, hashID(ws.requestID(b, h))<<1|uint64(h.flags&runSide))
		if h.link != 0 {
			binary.LittleEndian.PutUint32(b[h.link:], next)
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
		ws.splitGroups()
	}
	ws.threadGroup(at, ws.groups.Insert(at, hash))
	return true
}

// splitGroups splits one bucket of the group index as splitJoin does;
// every group run holds its link.
func (ws *winState) splitGroups() {
	var scratch [16]uint32
	chain := scratch[:0]
	for link := ws.groups.Split(); link != 0; {
		chain = append(chain, link)
		_, link = ws.groupRuns.Linked(link)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		at := chain[i] - 1
		key := ws.groupRuns.Tail(at)[groupHdr:]
		n, err := packedLen(key, ws.keyW)
		if err != nil {
			panic(corruptRun + err.Error())
		}
		ws.threadGroup(at, ws.groups.Reinsert(at, hashKey(key[:n])))
	}
}

// threadGroup writes next, the link Insert or Reinsert returned, into the
// group run at address at; every group run holds its link.
func (ws *winState) threadGroup(at, next uint32) {
	binary.LittleEndian.PutUint32(ws.groupRuns.Tail(at), next)
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
