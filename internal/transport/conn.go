package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"scrub/internal/event"
	"scrub/internal/obs"
)

// MaxFrame bounds a single protocol frame. Batches larger than this are an
// agent bug (the shipper bounds batch sizes well below it).
const MaxFrame = 16 << 20

// ErrUnsendable wraps a Send failure that wrote nothing because of the
// message itself: it does not encode, or its frame is over MaxFrame.
var ErrUnsendable = errors.New("transport: unsendable message")

// ConnMetrics aggregates a connection's (or a set of connections')
// transport-level accounting: frames and wire bytes in each direction and
// the time spent in the codec. Fields may be nil to skip a dimension; the
// whole struct is typically built once per daemon with
// NewConnMetrics and attached to every Conn of one role.
type ConnMetrics struct {
	FramesSent *obs.Counter
	BytesSent  *obs.Counter // payload + 4-byte frame header
	EncodeNs   *obs.Counter
	FramesRecv *obs.Counter
	BytesRecv  *obs.Counter
	DecodeNs   *obs.Counter
}

// NewConnMetrics registers the six transport series in reg under
// scrub_transport_* with the given labels (typically conn="data") and
// returns the bundle to attach with Conn.SetMetrics.
func NewConnMetrics(reg *obs.Registry, labels ...obs.Label) *ConnMetrics {
	return &ConnMetrics{
		FramesSent: reg.Counter("scrub_transport_frames_sent_total", "frames written", labels...),
		BytesSent:  reg.Counter("scrub_transport_bytes_sent_total", "wire bytes written (payload + frame header)", labels...),
		EncodeNs:   reg.Counter("scrub_transport_encode_ns_total", "nanoseconds spent encoding outbound frames", labels...),
		FramesRecv: reg.Counter("scrub_transport_frames_recv_total", "frames read", labels...),
		BytesRecv:  reg.Counter("scrub_transport_bytes_recv_total", "wire bytes read (payload + frame header)", labels...),
		DecodeNs:   reg.Counter("scrub_transport_decode_ns_total", "nanoseconds spent decoding inbound frames", labels...),
	}
}

const (
	minReadBuf = 512      // what a receive starts on, and the smallest pooled buffer
	maxReadBuf = 64 << 10 // the largest pooled buffer (DESIGN.md §9)
)

// Frame buffers belong to frames, not to connections: a connection takes
// one from a pool when a frame needs it and gives it back once the frame
// is decoded or written, so an idle connection holds none. Read buffers
// come in power-of-two classes from minReadBuf to maxReadBuf, each pool
// holding its class by the address of the first byte — a pointer, which
// an interface holds without allocating where a slice needs a box. A
// larger buffer is made for its frame and dropped after it.
var readPools [8]sync.Pool // minReadBuf<<0 … minReadBuf<<7 == maxReadBuf

// bufClass returns the class of the smallest pooled buffer of n bytes or
// more, n at most maxReadBuf.
func bufClass(n int) int { return bits.Len(uint(max(n, minReadBuf)-1) / minReadBuf) }

// bufLen is the length of the buffer getBuf returns for n bytes: n's
// class, or n itself past maxReadBuf.
func bufLen(n int) int {
	if n > maxReadBuf {
		return n
	}
	return minReadBuf << bufClass(n)
}

// getBuf returns a buffer of bufLen(n) bytes at its full length: a pooled
// one of n's class, or a one-off past maxReadBuf.
func getBuf(n int) []byte {
	if n <= maxReadBuf {
		if p, _ := readPools[bufClass(n)].Get().(*byte); p != nil {
			return unsafe.Slice(p, bufLen(n))
		}
	}
	return make([]byte, bufLen(n))
}

// putBuf gives a buffer getBuf returned back to its pool; a one-off goes
// to the collector.
func putBuf(b []byte) {
	if n := cap(b); n > 0 && n == bufLen(n) && n <= maxReadBuf {
		readPools[bufClass(n)].Put(unsafe.SliceData(b))
	}
}

// encPool holds the buffers Send encodes into, boxed: a frame's size is
// known only once it is encoded, so they come in no classes. One that grew
// past maxReadBuf is not kept.
var encPool = sync.Pool{New: func() any { return new([]byte) }}

// Conn is a framed, message-oriented connection. Send is safe for
// concurrent use; Recv must be driven from one goroutine.
type Conn struct {
	nc  net.Conn
	wmu sync.Mutex
	// rbuf is the receiving goroutine's read buffer, always at its full
	// length; rbuf[r:w] has been read and not yet decoded. Frames are
	// decoded where they land, so one Read serves all it brought in. Once
	// all of it is decoded it goes back to its pool.
	rbuf []byte
	r, w int
	met  atomic.Pointer[ConnMetrics]
	once sync.Once
}

// SetMetrics attaches transport accounting; safe to call at any time,
// including while the connection is in use (the pointer swap is atomic).
func (c *Conn) SetMetrics(m *ConnMetrics) { c.met.Store(m) }

// NewConn wraps a net.Conn (TCP in production, net.Pipe in tests).
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc}
}

// Dial connects to a Scrub endpoint.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	return DialWith(addr, timeout, nil)
}

// DialWith connects like Dial but passes the raw connection through wrap
// (when non-nil) before framing. This is the seam fault-injection layers
// (internal/chaos) use to interpose on live connections without the
// protocol code knowing.
func DialWith(addr string, timeout time.Duration, wrap func(net.Conn) net.Conn) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if wrap != nil {
		nc = wrap(nc)
	}
	return NewConn(nc), nil
}

// Send encodes and frames one message and writes it in one call. The frame
// buffer comes from a pool and goes back once written, so a busy sender
// (e.g. the host shipper) allocates nothing per message in steady state,
// and an idle one holds no buffer. A message is charged to the metrics
// once it has been written.
func (c *Conn) Send(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	met := c.met.Load()
	var t0 time.Time
	if met != nil {
		t0 = time.Now()
	}
	enc := encPool.Get().(*[]byte)
	// The payload is encoded behind room for its length.
	frame, err := AppendEncode(append((*enc)[:0], 0, 0, 0, 0), m)
	if err != nil {
		encPool.Put(enc)
		return fmt.Errorf("%w: %v", ErrUnsendable, err)
	}
	defer func() {
		if cap(frame) <= maxReadBuf {
			*enc = frame[:0]
			encPool.Put(enc)
		}
	}()
	var encNs time.Duration
	if met != nil {
		encNs = time.Since(t0)
	}
	if len(frame)-4 > MaxFrame {
		return fmt.Errorf("%w: frame too large: %d bytes (%s)", ErrUnsendable, len(frame)-4, Name(m))
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := c.nc.Write(frame); err != nil {
		return err
	}
	if met != nil {
		if met.EncodeNs != nil {
			met.EncodeNs.Add(uint64(encNs))
		}
		if met.FramesSent != nil {
			met.FramesSent.Inc()
		}
		if met.BytesSent != nil {
			met.BytesSent.Add(uint64(len(frame)))
		}
	}
	return nil
}

// RecvScratch is the memory a receive loop lends to the messages it
// receives (Conn.RecvBorrowed): the Tuple and Value cells of a
// tuple-carrying message, taken from a pool for the frame and given back
// at the next receive, and the strings the loop's frames keep repeating.
// The zero value is ready to use; one scratch serves one loop.
type RecvScratch struct {
	// cells is what the last frame borrowed; nil between a receive that
	// lent no tuples and the next.
	cells *cells
	// sub, ack, man and mack are the messages last handed out by pointer.
	sub  ShardSubBatch
	ack  ShardBatchAck
	man  BatchManifest
	mack ManifestAck
	// strs holds the strings last decoded, by a hash of their bytes: a host
	// id or a low-cardinality column value is allocated once, then found.
	// It is made at the first non-empty string, so a loop whose frames
	// carry none (an RPC client's acks) holds no table.
	strs *[internSlots]string
}

// cells are the arrays one frame's tuples are decoded into.
type cells struct {
	tuples []Tuple
	vals   []event.Value
}

var cellPool = sync.Pool{New: func() any { return new(cells) }}

// lend returns the cells a frame decodes into, taken from the pool at the
// first tuple list of the frame.
func (sc *RecvScratch) lend() *cells {
	if sc.cells == nil {
		sc.cells = cellPool.Get().(*cells)
	}
	return sc.cells
}

// reclaim gives the cells the last frame borrowed back to the pool,
// wiped, and forgets the messages that pointed into them.
func (sc *RecvScratch) reclaim() {
	sc.sub = ShardSubBatch{}
	if cl := sc.cells; cl != nil {
		// Only what the frame filled holds a pointer: the cells past it
		// were wiped at an earlier reclaim, or hold Poison's constants.
		clear(cl.tuples)
		clear(cl.vals)
		sc.cells = nil
		cellPool.Put(cl)
	}
}

const internSlots = 64

// intern returns b as an ordinary immutable string: the table's copy when
// the slot b hashes to holds these bytes, else a fresh one that takes the
// slot. Two strings sharing a slot evict each other and cost what they
// did without the table, an allocation each.
//
//scrub:allowalloc(the table, once per loop, and a string it does not hold, once per distinct string of the loop's frames)
func (sc *RecvScratch) intern(b []byte) string {
	if len(b) == 0 {
		return "" // needs no table: an ack's empty Err makes none
	}
	if sc.strs == nil {
		sc.strs = new([internSlots]string)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	p := &sc.strs[h%internSlots]
	if *p != string(b) {
		*p = string(b)
	}
	return *p
}

// Poison overwrites every cell the scratch has lent out with garbage. A
// receive loop under test calls it once it is done with a message, so
// anything that kept a borrowed cell reads garbage and diverges.
func (sc *RecvScratch) Poison() {
	if sc.cells == nil {
		return
	}
	vals := sc.cells.vals[:cap(sc.cells.vals)]
	for i := range vals {
		vals[i] = event.Str("\x00poisoned borrowed value")
	}
	tuples := sc.cells.tuples[:cap(sc.cells.tuples)]
	for i := range tuples {
		tuples[i] = Tuple{RequestID: ^uint64(0) - uint64(i), TsNanos: -1 << 62, Values: vals}
	}
}

// Recv blocks for the next message. The message owns its memory.
func (c *Conn) Recv() (Message, error) { return c.RecvBorrowed(nil) }

// RecvBorrowed is Recv into memory the caller lends: a tuple-carrying
// message's Tuples and their Values are cells of sc — valid until the
// next RecvBorrowed with the same scratch, which is the //scrub:pooled
// contract those fields carry anyway (copy what you keep; a Value copied
// out of a cell stays good, its string is an ordinary immutable string).
// A ShardSubBatch, ShardBatchAck, BatchManifest or ManifestAck — a
// routed batch's round trips — arrives as a pointer into sc, so that
// receiving it allocates nothing; every other message arrives by value
// and owns what is not a tuple. A nil sc allocates everything, as Recv
// does. Either way the frame is decoded where it lies in the read buffer
// and no message aliases it: its bytes are dead on return, and once
// nothing undecoded is left behind them the buffer goes back to its pool.
//
//scrub:pooled
func (c *Conn) RecvBorrowed(sc *RecvScratch) (Message, error) {
	if sc != nil {
		sc.reclaim() // the last frame's cells are dead: the receive that waits holds none
	}
	if err := c.fill(4); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(c.rbuf[c.r:]))
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	if err := c.fill(4 + n); err != nil {
		return nil, err
	}
	payload := c.rbuf[c.r+4 : c.r+4+n]
	c.r += 4 + n
	m, err := c.decodeMetered(payload, sc)
	switch have := c.w - c.r; {
	case have == 0:
		// Nothing is left to decode: the buffer goes back to its pool, and
		// the next receive starts on minReadBuf.
		putBuf(c.rbuf)
		c.rbuf, c.r, c.w = nil, 0, 0
	case len(c.rbuf) > maxReadBuf && have <= maxReadBuf:
		// A buffer made for this one frame goes, unless what was read
		// behind the frame is the start of another such.
		c.rebuffer(have)
	}
	return m, err
}

// decodeMetered is decode, charged to the connection's metrics if it has
// any.
func (c *Conn) decodeMetered(payload []byte, sc *RecvScratch) (Message, error) {
	met := c.met.Load()
	if met == nil {
		return decode(payload, sc)
	}
	t0 := time.Now()
	m, err := decode(payload, sc)
	if met.DecodeNs != nil {
		met.DecodeNs.Add(uint64(time.Since(t0)))
	}
	if err == nil {
		if met.FramesRecv != nil {
			met.FramesRecv.Inc()
		}
		if met.BytesRecv != nil {
			met.BytesRecv.Add(uint64(len(payload) + 4))
		}
	}
	return m, err
}

// fill reads until need bytes — a frame header, or a whole frame — are
// buffered at c.r; the frames queued behind come in with the same Reads.
func (c *Conn) fill(need int) error {
	for empty := 0; c.w-c.r < need; {
		// No room for the frame where it starts: take a buffer it fits, or
		// move it to the front of this one. A length prefix is believed
		// only up to maxReadBuf or twice what has really arrived: a hostile
		// header claiming MaxFrame costs at most 64 KiB.
		if c.r+need > len(c.rbuf) {
			c.rebuffer(max(len(c.rbuf), min(need, max(maxReadBuf, 2*(c.w-c.r)))))
		}
		n, err := c.nc.Read(c.rbuf[c.w:])
		c.w += n
		if err != nil && c.w-c.r < need {
			if err == io.EOF && c.w > c.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		// A net.Conn that keeps reading nothing without an error gets the
		// hundred tries bufio gave it, not a spin.
		if n > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			return io.ErrNoProgress
		}
		// A Read that took all the room there was may have left more
		// waiting: the next gets twice the room and serves more frames.
		if c.w == len(c.rbuf) && len(c.rbuf) < maxReadBuf {
			c.rebuffer(2 * len(c.rbuf))
		}
	}
	return nil
}

// rebuffer moves what is buffered to the front of a read buffer of
// size's class — the present one if it is of that class — and gives the
// buffer it leaves back to its pool.
func (c *Conn) rebuffer(size int) {
	buf := c.rbuf
	if n := bufLen(size); n != len(buf) {
		buf = getBuf(n)
	} else if c.r == 0 {
		return // already at the front
	}
	have := copy(buf, c.rbuf[c.r:c.w])
	if len(buf) != len(c.rbuf) {
		putBuf(c.rbuf)
	}
	c.rbuf, c.r, c.w = buf, 0, have
}

// SetReadDeadline forwards to the underlying connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// SetWriteDeadline bounds the writes of the underlying connection: a Send
// not taken by t fails with os.ErrDeadlineExceeded.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// SetDeadline bounds the reads and the writes of the underlying
// connection: a Send to a peer that has stopped reading fails at t rather
// than blocking in Write for ever.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close shuts the connection down; safe to call multiple times.
func (c *Conn) Close() error {
	var err error
	c.once.Do(func() { err = c.nc.Close() })
	return err
}

// Listener accepts framed connections.
type Listener struct {
	nl net.Listener
}

// Listen opens a TCP listener. Pass "127.0.0.1:0" for an ephemeral test
// port; Addr reports the bound address.
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{nl: nl}, nil
}

// Accept blocks for the next connection.
func (l *Listener) Accept() (*Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.nl.Addr().String() }

// Close stops accepting.
func (l *Listener) Close() error { return l.nl.Close() }

// Pipe returns an in-process connection pair for tests: messages written
// to one end are received on the other.
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}
