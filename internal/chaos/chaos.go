// Package chaos is a deterministic, seedable fault-injection layer for
// Scrub's transport connections. It wraps raw net.Conns at the byte
// level but understands the transport's length-prefixed framing on the
// write path, so faults operate on whole protocol frames — a dropped
// frame is one lost message, not a truncated stream that would desync
// the peer's decoder (real networks lose packets; TCP either delivers
// the frame or kills the connection, and chaos reproduces both).
//
// Faults compose per host and change live: an Injector holds the
// current Faults for each host, every wrapped connection consults it on
// each operation, and a Schedule flips fault sets at fixed offsets for
// scripted failure scenarios. All randomness flows from the Injector's
// seed through per-connection RNGs, so a scenario replays identically
// under the same seed, wiring, and send order.
package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// maxFrame mirrors transport.MaxFrame without importing it: a parsed
// length above this means the stream is not Scrub framing, and the
// writer falls back to passing bytes through untouched.
const maxFrame = 16 << 20

// Faults is one host's active fault set. The zero value is a healthy
// link. Probabilities are per frame in [0, 1].
type Faults struct {
	// DropProb silently discards a written frame.
	DropProb float64
	// DupProb writes a frame twice back to back.
	DupProb float64
	// ReorderProb holds a frame and releases it after the next one, so
	// adjacent frames swap on the wire.
	ReorderProb float64
	// DelayMin/DelayMax sleep a uniform duration in [min, max] before
	// each frame is written (link latency and jitter).
	DelayMin, DelayMax time.Duration
	// PartitionSend blackholes writes: the application keeps sending,
	// nothing arrives, the connection stays up. One-way partition.
	PartitionSend bool
	// PartitionRecv stalls reads until the partition heals or the
	// connection closes. The other half of a full partition.
	PartitionRecv bool
	// ReadBytesPerSec throttles the read path to model a slow reader /
	// congested link. 0 is unthrottled.
	ReadBytesPerSec int
}

// Partitioned is the full two-way partition fault set.
func Partitioned() Faults { return Faults{PartitionSend: true, PartitionRecv: true} }

// Injector owns per-host fault state and tracks the live connections it
// has wrapped, so partitions flip atomically for every connection of a
// host and Kill can sever them abruptly.
type Injector struct {
	seed int64

	mu     sync.Mutex
	faults map[string]Faults
	conns  map[string]map[*conn]struct{}
	nconns uint64
}

// New creates an injector. The same seed replays the same fault
// decisions given the same wiring and send order.
func New(seed int64) *Injector {
	return &Injector{
		seed:   seed,
		faults: make(map[string]Faults),
		conns:  make(map[string]map[*conn]struct{}),
	}
}

// Set installs a host's fault set, replacing any previous one. It
// applies immediately to live connections.
func (inj *Injector) Set(host string, f Faults) {
	inj.mu.Lock()
	inj.faults[host] = f
	inj.mu.Unlock()
}

// Heal removes a host's faults; its links behave normally again.
func (inj *Injector) Heal(host string) {
	inj.mu.Lock()
	delete(inj.faults, host)
	inj.mu.Unlock()
}

// Kill abruptly closes every live wrapped connection of the host —
// a process crash rather than a network fault — and reports how many it
// severed. The host's fault set is untouched, so a reconnecting client
// comes back into whatever conditions are scheduled.
func (inj *Injector) Kill(host string) int {
	inj.mu.Lock()
	var victims []*conn
	for c := range inj.conns[host] {
		victims = append(victims, c)
	}
	inj.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	return len(victims)
}

// faultsFor snapshots a host's current fault set.
func (inj *Injector) faultsFor(host string) Faults {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.faults[host]
}

// Wrap interposes on nc for the given host. Pass the result wherever a
// net.Conn is expected; transport framing layers on top untouched.
func (inj *Injector) Wrap(host string, nc net.Conn) net.Conn {
	inj.mu.Lock()
	inj.nconns++
	h := fnv.New64a()
	h.Write([]byte(host))
	seed := inj.seed ^ int64(h.Sum64()) ^ int64(inj.nconns*0x9e3779b97f4a7c15)
	c := &conn{
		nc:     nc,
		inj:    inj,
		host:   host,
		rng:    rand.New(rand.NewSource(seed)),
		closed: make(chan struct{}),
	}
	set := inj.conns[host]
	if set == nil {
		set = make(map[*conn]struct{})
		inj.conns[host] = set
	}
	set[c] = struct{}{}
	inj.mu.Unlock()
	return c
}

// conn is one wrapped connection. The write path reassembles transport
// frames from arbitrary Write chunks and applies faults per frame; the
// read path applies partition stalls and throttling to raw bytes.
type conn struct {
	nc   net.Conn
	inj  *Injector
	host string

	wmu  sync.Mutex // guards rng, wbuf, held (Write path; rng is write-only state)
	rng  *rand.Rand
	wbuf []byte // bytes awaiting a complete frame
	held []byte // frame held back for reordering

	closeOnce sync.Once
	closed    chan struct{}
}

// Write implements net.Conn. It reports the full length as written even
// when frames are blackholed or dropped — from the sender's perspective
// a lossy network accepts the bytes just fine.
func (c *conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = append(c.wbuf, p...)
	for {
		if len(c.wbuf) < 4 {
			break
		}
		n := binary.LittleEndian.Uint32(c.wbuf[:4])
		if n == 0 || n > maxFrame {
			// Not Scrub framing; stop interposing and pass through.
			if err := c.flushRawLocked(); err != nil {
				return 0, err
			}
			break
		}
		total := 4 + int(n)
		if len(c.wbuf) < total {
			break
		}
		frame := c.wbuf[:total]
		if err := c.writeFrameLocked(frame); err != nil {
			return 0, err
		}
		c.wbuf = c.wbuf[total:]
	}
	if len(c.wbuf) == 0 {
		c.wbuf = nil
	}
	return len(p), nil
}

func (c *conn) flushRawLocked() error {
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = nil
	return err
}

// writeFrameLocked applies the host's current faults to one frame. The
// RNG draws happen in a fixed order per frame regardless of which
// faults are enabled, so enabling one fault does not shift the random
// stream consumed by another — scenarios stay comparable across runs.
func (c *conn) writeFrameLocked(frame []byte) error {
	f := c.inj.faultsFor(c.host)
	drop := f.DropProb > 0 && c.rng.Float64() < f.DropProb
	dup := f.DupProb > 0 && c.rng.Float64() < f.DupProb
	reorder := f.ReorderProb > 0 && c.rng.Float64() < f.ReorderProb
	if d := f.DelayMax; d > 0 && d >= f.DelayMin {
		span := int64(d - f.DelayMin)
		sleep := f.DelayMin
		if span > 0 {
			sleep += time.Duration(c.rng.Int63n(span + 1))
		}
		time.Sleep(sleep)
	}
	if f.PartitionSend || drop {
		c.held = c.releaseHeldLocked(f)
		return nil // blackholed; held frame dies with the partition
	}
	if held := c.releaseHeldLocked(f); held != nil {
		// A frame was waiting: send the new one first, then the held one —
		// the two swap on the wire.
		if err := c.sendLocked(frame, dup, f); err != nil {
			return err
		}
		return c.sendLocked(held, false, f)
	}
	if reorder {
		c.held = append([]byte(nil), frame...)
		return nil
	}
	return c.sendLocked(frame, dup, f)
}

// releaseHeldLocked takes the held frame, dropping it outright when the
// link is partitioned (a held frame is in-flight data; partitions eat
// in-flight data).
func (c *conn) releaseHeldLocked(f Faults) []byte {
	held := c.held
	c.held = nil
	if f.PartitionSend {
		return nil
	}
	return held
}

func (c *conn) sendLocked(frame []byte, dup bool, f Faults) error {
	if _, err := c.nc.Write(frame); err != nil {
		return err
	}
	if dup {
		if _, err := c.nc.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

// Read implements net.Conn: a receive partition stalls (polling so a
// heal resumes the stream), and a throttle paces delivered bytes.
func (c *conn) Read(p []byte) (int, error) {
	for {
		f := c.inj.faultsFor(c.host)
		if !f.PartitionRecv {
			if f.ReadBytesPerSec > 0 && len(p) > f.ReadBytesPerSec/10 {
				p = p[:f.ReadBytesPerSec/10+1]
			}
			n, err := c.nc.Read(p)
			if n > 0 && f.ReadBytesPerSec > 0 {
				time.Sleep(time.Duration(float64(n) / float64(f.ReadBytesPerSec) * float64(time.Second)))
			}
			return n, err
		}
		select {
		case <-c.closed:
			return 0, io.ErrClosedPipe
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Close implements net.Conn and untracks the connection.
func (c *conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		c.inj.mu.Lock()
		if set := c.inj.conns[c.host]; set != nil {
			delete(set, c)
		}
		c.inj.mu.Unlock()
		err = c.nc.Close()
	})
	return err
}

func (c *conn) LocalAddr() net.Addr                { return c.nc.LocalAddr() }
func (c *conn) RemoteAddr() net.Addr               { return c.nc.RemoteAddr() }
func (c *conn) SetDeadline(t time.Time) error      { return c.nc.SetDeadline(t) }
func (c *conn) SetReadDeadline(t time.Time) error  { return c.nc.SetReadDeadline(t) }
func (c *conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// Step is one scheduled fault transition.
type Step struct {
	// At is the offset from the start of Run.
	At time.Duration
	// Host names the target stream.
	Host string
	// Faults installs this set at the offset; nil heals the host.
	Faults *Faults
	// Kill severs the host's live connections at the offset (after the
	// fault change, so Kill+Partitioned models a crashed host whose
	// reconnects also fail).
	Kill bool
}

// Schedule applies steps at their offsets until all have run or done is
// closed. It sorts a copy of steps by offset, so callers can list them
// in narrative order. Run it in its own goroutine for live scenarios.
func (inj *Injector) Schedule(done <-chan struct{}, steps []Step) {
	ordered := append([]Step(nil), steps...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	start := time.Now()
	for _, s := range ordered {
		wait := s.At - time.Since(start)
		if wait > 0 {
			select {
			case <-done:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-done:
				return
			default:
			}
		}
		if s.Faults != nil {
			inj.Set(s.Host, *s.Faults)
		} else {
			inj.Heal(s.Host)
		}
		if s.Kill {
			inj.Kill(s.Host)
		}
	}
}

// String renders a fault set compactly for logs.
func (f Faults) String() string {
	return fmt.Sprintf("drop=%.2f dup=%.2f reorder=%.2f delay=[%s,%s] partSend=%v partRecv=%v throttle=%dB/s",
		f.DropProb, f.DupProb, f.ReorderProb, f.DelayMin, f.DelayMax, f.PartitionSend, f.PartitionRecv, f.ReadBytesPerSec)
}
