package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	"scrub/internal/event"
)

// TestFuzzSeedsCoverAllTags pins the fuzz corpus to the wire protocol:
// every message type — every type with a msgTag method — must appear
// among the FuzzDecode seeds under its own name, so a message type added
// without a sampleMessages entry (or a names entry) fails here before the
// fuzzer ever runs blind on it.
func TestFuzzSeedsCoverAllTags(t *testing.T) {
	seeded := make(map[string]bool)
	for _, m := range sampleMessages() {
		seeded[Name(m)] = true
	}
	for _, name := range messageTypes(t) {
		if !seeded[name] {
			t.Errorf("no fuzz seed encodes %s; add a sample to sampleMessages", name)
		}
	}
}

// FuzzDecode hammers the payload decoder with arbitrary bytes. The
// contract under fuzz: Decode must return a message or an error — never
// panic, never hang, never allocate proportionally to a lying length
// field — and anything it accepts must survive a re-encode/re-decode
// round trip (no "valid" message the encoder cannot represent). The same
// holds through a receive scratch, which must decode to the same message.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		buf, err := AppendEncode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		// Truncations of valid payloads probe every short-read path.
		if len(buf) > 1 {
			f.Add(buf[:len(buf)/2])
			f.Add(buf[:len(buf)-1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0})                                                             // tag 0 is unused
	f.Add([]byte{255, 1, 2, 3})                                                  // garbage tag
	f.Add([]byte{tagTupleBatch, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // implausible counts
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		buf, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", Name(m), err)
		}
		m2, err := Decode(buf)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", Name(m), err)
		}
		if reflect.TypeOf(m) != reflect.TypeOf(m2) {
			t.Fatalf("round trip changed type: %T -> %T", m, m2)
		}
		var sc RecvScratch
		for i := 0; i < 2; i++ { // the second pass reuses what the first sized and interned
			mb, err := decode(data, &sc)
			if err != nil {
				t.Fatalf("%s decodes without a scratch but not with one: %v", Name(m), err)
			}
			if bb, err := AppendEncode(nil, owned(mb)); err != nil || !bytes.Equal(bb, buf) {
				t.Fatalf("%s decodes differently through a scratch (%v)", Name(m), err)
			}
		}
	})
}

// byteConn adapts byte buffers to net.Conn so Conn.Recv can be driven over
// arbitrary frame bytes, and Conn.Send captured, without goroutines.
type byteConn struct {
	r *bytes.Reader
	w *bytes.Buffer // nil discards
}

func (c byteConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c byteConn) Write(p []byte) (int, error) {
	if c.w != nil {
		return c.w.Write(p)
	}
	return len(p), nil
}
func (c byteConn) Close() error                       { return nil }
func (c byteConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c byteConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c byteConn) SetDeadline(t time.Time) error      { return nil }
func (c byteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c byteConn) SetWriteDeadline(t time.Time) error { return nil }

// chunkConn is a byteConn whose Reads return the stream in pieces of the
// sizes given, cycled: 1 byte up to 255, or — for size 0 — all that the
// caller has room for, so a read may end mid-header, mid-payload or
// several frames on.
type chunkConn struct {
	byteConn
	sizes []byte
	reads int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.sizes) > 0 {
		if n := int(c.sizes[c.reads%len(c.sizes)]); n > 0 && n < len(p) {
			p = p[:n]
		}
		c.reads++
	}
	return c.r.Read(p)
}

// drainFrames receives until the stream errors out or maxFrames have
// arrived, and returns every message re-encoded. An error must come with
// no message: a frame cut short is never handed out half decoded.
func drainFrames(t *testing.T, nc net.Conn, sc *RecvScratch) [][]byte {
	t.Helper()
	const maxFrames = 16
	c := NewConn(nc)
	var out [][]byte
	for len(out) < maxFrames {
		m, err := c.RecvBorrowed(sc)
		if err != nil {
			if m != nil {
				t.Fatalf("frame %d: an error (%v) came with a %s", len(out), err, Name(m))
			}
			break
		}
		enc, err := AppendEncode(nil, owned(m))
		if err != nil {
			t.Fatalf("frame %d: received %s does not re-encode: %v", len(out), Name(m), err)
		}
		out = append(out, enc)
		if len(c.rbuf) > maxReadBuf {
			t.Fatalf("frame %d: the connection keeps a %d-byte read buffer", len(out), len(c.rbuf))
		}
	}
	return out
}

// FuzzRecvFrame feeds raw bytes — corrupt length prefixes included —
// through the framing layer, whole and in fuzz-chosen read sizes. Recv
// must error on zero or oversized lengths and on truncated headers and
// payloads, never panic; and how the bytes were cut into reads must not
// show: the same messages arrive, with a scratch and without.
func FuzzRecvFrame(f *testing.F) {
	frame := func(m Message) []byte {
		payload, err := AppendEncode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	ack := frame(ManifestAck{Seq: 1})
	sub := frame(ShardSubBatch{Seq: 2, QueryID: 3, HostID: "h", Tuples: []Tuple{
		{RequestID: 1, TsNanos: 2, Values: []event.Value{event.Int(4), event.Str("geo")}},
		{RequestID: 5, TsNanos: 6, Values: []event.Value{event.Int(7), event.Str("geo")}},
	}})
	stream := append(append(append([]byte(nil), sub...), ack...), sub...)
	f.Add(ack, []byte{0})
	f.Add([]byte{0, 0, 0, 0}, []byte{0})                      // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, []byte{0}) // length > MaxFrame
	f.Add(ack[:3], []byte{1})                                 // cut mid-header
	f.Add(stream, []byte{0})                                  // several frames in one read
	f.Add(stream, []byte{1})                                  // a byte at a time
	f.Add(stream, []byte{3, 0, 17, 1})                        // a bit of everything
	f.Add(stream[:len(stream)-5], []byte{9})                  // a borrowed sub-batch cut mid-payload
	f.Add(stream[:len(sub)+len(ack)+2], []byte{0})            // ... and mid-header, behind whole frames
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		whole := func() net.Conn { return byteConn{r: bytes.NewReader(data)} }
		pieces := func() net.Conn { return &chunkConn{byteConn: byteConn{r: bytes.NewReader(data)}, sizes: sizes} }
		want := drainFrames(t, whole(), nil)
		for name, got := range map[string][][]byte{
			"in pieces":                    drainFrames(t, pieces(), nil),
			"through a scratch":            drainFrames(t, whole(), new(RecvScratch)),
			"in pieces, through a scratch": drainFrames(t, pieces(), new(RecvScratch)),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s: %d frames arrived, %d when delivered whole", name, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: frame %d differs from whole delivery", name, i)
				}
			}
		}
	})
}
