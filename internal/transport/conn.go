package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scrub/internal/event"
	"scrub/internal/obs"
)

// MaxFrame bounds a single protocol frame. Batches larger than this are an
// agent bug (the shipper bounds batch sizes well below it).
const MaxFrame = 16 << 20

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

// Conn is a framed, message-oriented connection. Send is safe for
// concurrent use; Recv must be driven from one goroutine.
type Conn struct {
	nc  net.Conn
	br  *bufio.Reader
	wmu sync.Mutex
	enc []byte // reusable frame buffer (header and payload), guarded by wmu
	// rhdr is the receiving goroutine's frame-header buffer: a local array
	// would escape through the io.Reader call and cost an allocation per
	// frame.
	rhdr [4]byte
	met  atomic.Pointer[ConnMetrics]
	once sync.Once
}

// SetMetrics attaches transport accounting; safe to call at any time,
// including while the connection is in use (the pointer swap is atomic).
func (c *Conn) SetMetrics(m *ConnMetrics) { c.met.Store(m) }

// NewConn wraps a net.Conn (TCP in production, net.Pipe in tests).
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
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
		return err
	}
	c.enc = frame[:0]
	var encNs time.Duration
	if met != nil {
		encNs = time.Since(t0)
	}
	if len(frame)-4 > MaxFrame {
		return fmt.Errorf("transport: frame too large: %d bytes (%s)", len(frame)-4, Name(m))
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
// receives (Conn.RecvBorrowed): the frame payload buffer, and the Tuple
// and Value cells of a tuple-carrying message, all reused from frame to
// frame. The zero value is ready to use; one scratch serves one loop.
type RecvScratch struct {
	payload []byte
	tuples  []Tuple
	vals    []event.Value
	// sub is the sub-batch last handed out; its HostID is what the next
	// frame's strings are interned against.
	sub ShardSubBatch
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

// RecvBorrowed is Recv into memory the caller lends: the payload is read
// into sc's buffer, and a tuple-carrying message's Tuples and their
// Values are cells of sc — valid until the next RecvBorrowed with the
// same scratch, which is the //scrub:pooled contract those fields carry
// anyway (copy what you keep; a Value copied out of a cell stays good,
// its string is an ordinary immutable string). A ShardSubBatch frame
// arrives as a *ShardSubBatch pointing into sc, so that receiving it
// allocates nothing; every other message arrives by value and owns what
// is not a tuple. A nil sc allocates everything, as Recv does.
//
//scrub:pooled
func (c *Conn) RecvBorrowed(sc *RecvScratch) (Message, error) {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(c.rhdr[:]))
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	var payload []byte
	if sc != nil {
		payload = sc.payload[:0]
	}
	// Grow incrementally rather than trusting the length prefix with one
	// up-front allocation: a corrupt or hostile header claiming MaxFrame
	// costs at most 64KiB before the short read surfaces. A buffer that is
	// already large enough costs nothing.
	for len(payload) < n {
		step := min(n-len(payload), 1<<20)
		if len(payload) == 0 {
			step = min(step, 64<<10)
		}
		at := len(payload)
		payload = slices.Grow(payload, step)[:at+step]
		if _, err := io.ReadFull(c.br, payload[at:]); err != nil {
			return nil, err
		}
	}
	if sc != nil {
		sc.payload = payload
	}
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

// SetReadDeadline forwards to the underlying connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

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
