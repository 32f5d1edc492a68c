package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

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
	minReadBuf = 512      // what a read buffer starts at
	maxReadBuf = 64 << 10 // the most one keeps from frame to frame (DESIGN.md §9)
)

// Conn is a framed, message-oriented connection. Send is safe for
// concurrent use; Recv must be driven from one goroutine.
type Conn struct {
	nc  net.Conn
	wmu sync.Mutex
	enc []byte // reusable frame buffer (header and payload), guarded by wmu
	// rbuf is the receiving goroutine's read buffer, always at its full
	// length; rbuf[r:w] has been read and not yet decoded. Frames are
	// decoded where they land, so one Read serves all it brought in.
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
// buffer is owned by the connection and reused across calls, so a busy
// sender (e.g. the host shipper) allocates nothing per message in steady
// state. A message is charged to the metrics once it has been written.
func (c *Conn) Send(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	met := c.met.Load()
	var t0 time.Time
	if met != nil {
		t0 = time.Now()
	}
	// The payload is encoded behind room for its length.
	frame, err := AppendEncode(append(c.enc[:0], 0, 0, 0, 0), m)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnsendable, err)
	}
	c.enc = frame[:0]
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
// tuple-carrying message, reused from frame to frame, and the strings the
// loop's frames keep repeating. The zero value is ready to use; one
// scratch serves one loop.
type RecvScratch struct {
	tuples []Tuple
	vals   []event.Value
	// sub is the sub-batch last handed out.
	sub ShardSubBatch
	// strs holds the strings last decoded, by a hash of their bytes: a host
	// id or a low-cardinality column value is allocated once, then found.
	strs [internSlots]string
}

const internSlots = 64

// intern returns b as an ordinary immutable string: the table's copy when
// the slot b hashes to holds these bytes, else a fresh one that takes the
// slot. Two strings sharing a slot evict each other and cost what they
// did without the table, an allocation each.
//
//scrub:allowalloc(a string the table does not hold is copied, once per distinct string of a loop's frames)
func (sc *RecvScratch) intern(b []byte) string {
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
	vals := sc.vals[:cap(sc.vals)]
	for i := range vals {
		vals[i] = event.Str("\x00poisoned borrowed value")
	}
	tuples := sc.tuples[:cap(sc.tuples)]
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
// A ShardSubBatch frame arrives as a *ShardSubBatch pointing into sc, so
// that receiving it allocates nothing; every other message arrives by
// value and owns what is not a tuple. A nil sc allocates everything, as
// Recv does. Either way the frame is decoded where it lies in the read
// buffer and no message aliases it: its bytes are dead on return.
//
//scrub:pooled
func (c *Conn) RecvBorrowed(sc *RecvScratch) (Message, error) {
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
	// A buffer that grew past maxReadBuf for this one frame goes, unless
	// what was read behind the frame is the start of another such.
	if have := c.w - c.r; len(c.rbuf) > maxReadBuf && have <= maxReadBuf {
		c.rebuffer(max(have, minReadBuf))
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
	if c.r == c.w {
		c.r, c.w = 0, 0
	}
	for empty := 0; c.w-c.r < need; {
		// No room for the frame where it starts: move it to the front when
		// that frees space, grow to it when the buffer is full. A length
		// prefix is believed only up to maxReadBuf or twice what has really
		// arrived: a hostile header claiming MaxFrame costs at most 64 KiB.
		if c.r+need > len(c.rbuf) && (c.r > 0 || c.w == len(c.rbuf)) {
			size := len(c.rbuf)
			if size < need {
				size = max(size, min(max(need, minReadBuf), max(maxReadBuf, 2*(c.w-c.r))))
			}
			c.rebuffer(size)
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
			c.rebuffer(min(2*len(c.rbuf), maxReadBuf))
		}
	}
	return nil
}

// rebuffer moves what is buffered to the front of a read buffer of size
// bytes, the present one if that is its size.
func (c *Conn) rebuffer(size int) {
	buf := c.rbuf
	if size != len(buf) {
		buf = make([]byte, size)
	}
	have := copy(buf, c.rbuf[c.r:c.w])
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
