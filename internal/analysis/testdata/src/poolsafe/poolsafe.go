// Package poolsafe is golden-test input for the poolsafe analyzer.
package poolsafe

// Chunk stands in for the agent's pooled chunk type.
//
//scrub:pooled
type Chunk struct{ buf []byte }

// Tuple mirrors transport.Tuple: the type itself is plain, but Values
// aliases pooled memory when the tuple arrives from a caller.
type Tuple struct {
	ID int
	//scrub:pooled
	Values []int
}

// Batch mirrors transport.TupleBatch.
type Batch struct {
	//scrub:pooled
	Tuples []Tuple
}

type holder struct {
	c  *Chunk
	ts []Tuple
	bs []Batch
}

var global *Chunk

func StoreField(h *holder, c *Chunk) {
	h.c = c // want `pooled memory stored into h.c`
}

func StoreGlobal(c *Chunk) {
	global = c // want `pooled memory stored in package-level variable global`
}

func Send(ch chan *Chunk, c *Chunk) {
	ch <- c // want `pooled memory sent on a channel`
}

func ShallowAppend(h *holder, b Batch) {
	h.ts = append(h.ts, b.Tuples...) // want `pooled memory stored into h.ts`
}

func Gather(dst []Tuple, b Batch) {
	copy(dst, b.Tuples) // want `shallow copy`
}

// CloneTuples is exempt by name: functions named *Copy*/*Clone*/*Dup*
// are the mandated deep-copy implementations.
func CloneTuples(ts []Tuple) []Tuple {
	out := make([]Tuple, len(ts))
	for i, t := range ts {
		out[i] = t
		out[i].Values = append([]int(nil), t.Values...)
	}
	return out
}

func StoreClone(h *holder, b Batch) {
	h.ts = CloneTuples(b.Tuples) // ok: sanitizer call returns owned memory
}

func Park(h *holder, c *Chunk) {
	//scrub:allowretain(ownership handoff documented in the golden test)
	h.c = c // ok: explicit escape hatch
}

// Reframe shows the strong-update rule: a tainted local detaches from
// the pool when its pooled field is overwritten with owned memory.
func Reframe(h *holder, b Batch) {
	t := b.Tuples[0]                           // t aliases pooled memory
	t.Values = append([]int(nil), t.Values...) // strong update: t now owns its Values
	h.ts = append(h.ts, t)                     // ok
}

// ReframeWrong is Reframe without the repair — the taint survives.
func ReframeWrong(h *holder, b Batch) {
	t := b.Tuples[0]
	h.ts = append(h.ts, t) // want `pooled memory stored into h.ts`
}

// StoreWhole retains the entire foreign batch. No pooled field is
// selected, but keeping the struct keeps its pooled Tuples array all
// the same — the spill-buffer bug shape.
func StoreWhole(h *holder, b Batch) {
	h.bs = append(h.bs, b) // want `pooled memory stored into h.bs`
}

// SendWhole is the channel form of StoreWhole.
func SendWhole(ch chan Batch, b Batch) {
	ch <- b // want `pooled memory sent on a channel`
}

// KeepCopy is the mandated repair: copy the struct, overwrite its
// pooled field with owned memory, and the result is self-owned.
func KeepCopy(h *holder, t *Tuple) {
	kept := *t
	kept.Values = append([]int(nil), t.Values...)
	h.ts = append(h.ts, kept) // ok: deep-copied before retention
}

// The record-hook buffer handoff (the replay store's shape): Append
// encodes each event into a reusable scratch buffer that the next
// Append overwrites, so sealing must copy the bytes out — retaining the
// scratch, or any reslice of it, hands recycled memory to the reader.

//scrub:pooled
type scratch struct{ b []byte }

type recordStore struct {
	data   []byte
	sealed [][]byte
}

func SealRetainsScratch(s *recordStore, sc *scratch) {
	s.data = sc.b // want `pooled memory stored into s.data`
}

func SealRetainsReslice(s *recordStore, sc *scratch, n int) {
	s.data = sc.b[:n] // want `pooled memory stored into s.data`
}

func SealGlobal(sc *scratch) {
	globalData = sc.b // want `pooled memory stored in package-level variable globalData`
}

var globalData []byte

// SealOwned is the mandated repair, byte-for-byte what Store.sealLocked
// does: the payload lands in a fresh allocation before retention.
func SealOwned(s *recordStore, sc *scratch) {
	cp := make([]byte, len(sc.b))
	copy(cp, sc.b) // ok: byte elements carry no pooled fields
	s.data = cp    // ok: owned memory
}

// SealAppendOwned is the compact form of the same repair.
func SealAppendOwned(s *recordStore, sc *scratch) {
	s.data = append([]byte(nil), sc.b...) // ok: detached from the scratch
}

// The receive loop over caller-lent scratch (a shard's ServeConn shape):
// Recv decodes into cells the connection owns and reuses on the next
// call, so what it returns is borrowed exactly like a parameter — a
// handler may read it and pass it down, and must copy what it keeps.

type msg interface{ tag() int }

// SubBatch mirrors transport.ShardSubBatch, delivered by pointer into
// the scratch.
type SubBatch struct {
	Seq int
	//scrub:pooled
	Tuples []Tuple
}

func (*SubBatch) tag() int { return 1 }

type ack struct{ Seq int }

func (ack) tag() int { return 2 }

type conn struct{ sub SubBatch }

// Recv hands out messages that alias the connection's scratch.
//
//scrub:pooled
func (c *conn) Recv() (msg, error) { return &c.sub, nil }

type node struct {
	last   []int
	batch  []Tuple
	byReq  map[int][]int
	seen   int
	copies [][]int
}

func apply(ts []Tuple) int { return len(ts) }

// ServeRetains is the bug shape: each arm keeps a borrowed cell past the
// next Recv.
func ServeRetains(n *node, c *conn) {
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		switch t := m.(type) {
		case *SubBatch:
			n.last = t.Tuples[0].Values                  // want `pooled memory stored into n.last`
			n.batch = t.Tuples                           // want `pooled memory stored into n.batch`
			n.byReq[t.Tuples[0].ID] = t.Tuples[0].Values // want `pooled memory stored into n.byReq`
		case ack:
			n.seen = t.Seq // ok: a scalar
		}
	}
}

// ServeClean is the real loop's shape: borrowed tuples are read, passed
// down a synchronous call, and copied when kept.
func ServeClean(n *node, c *conn) {
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		switch t := m.(type) {
		case *SubBatch:
			n.seen += apply(t.Tuples)                                              // ok: synchronous use
			n.seen = t.Seq                                                         // ok: a scalar
			n.copies = append(n.copies, append([]int(nil), t.Tuples[0].Values...)) // ok: detached
		}
	}
}
