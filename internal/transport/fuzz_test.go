package transport

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"
)

// TestFuzzSeedsCoverAllTags pins the fuzz corpus to the wire protocol:
// every registered tag — the 15 base messages and the 19 coordination
// messages — must appear among the FuzzDecode seeds, so a message type
// added without a sampleMessages entry fails here before the fuzzer
// ever runs blind on it.
func TestFuzzSeedsCoverAllTags(t *testing.T) {
	seeded := make(map[byte]bool)
	for _, m := range sampleMessages() {
		seeded[m.msgTag()] = true
	}
	for tag := tagSubmitQuery; tag <= tagRepAck; tag++ {
		if !seeded[tag] {
			t.Errorf("no fuzz seed encodes %s (tag %d); add a sample to sampleMessages", Name(newMessageForTag(t, tag)), tag)
		}
	}
	if got, want := len(seeded), int(tagRepAck); got != want {
		t.Errorf("sampleMessages covers %d distinct tags, registry has %d", got, want)
	}
}

// newMessageForTag decodes a minimal payload for the tag purely to
// recover the type's Name for the error message; an undecodable tag
// reports as its number.
func newMessageForTag(t *testing.T, tag byte) Message {
	t.Helper()
	m, err := Decode(append([]byte{tag}, make([]byte, 64)...))
	if err != nil {
		return nil
	}
	return m
}

// FuzzDecode hammers the payload decoder with arbitrary bytes. The
// contract under fuzz: Decode must return a message or an error — never
// panic, never hang, never allocate proportionally to a lying length
// field — and anything it accepts must survive a re-encode/re-decode
// round trip (no "valid" message the encoder cannot represent). The same
// holds through a receive scratch, which must decode to the same message.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		buf, err := Encode(m)
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
		buf, err := Encode(m)
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
		sc.sub.HostID = "h"      // something for strings to be interned against
		for i := 0; i < 2; i++ { // the second pass reuses what the first sized
			mb, err := decode(data, &sc)
			if err != nil {
				t.Fatalf("%s decodes without a scratch but not with one: %v", Name(m), err)
			}
			if bb, err := Encode(owned(mb)); err != nil || !bytes.Equal(bb, buf) {
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

// FuzzRecvFrame feeds raw bytes — corrupt length prefixes included —
// through the framing layer. Recv must error on zero or oversized
// lengths and on truncated payloads, never panic.
func FuzzRecvFrame(f *testing.F) {
	frame := func(payload []byte) []byte {
		var hdr [4]byte
		hdr[0] = byte(len(payload))
		hdr[1] = byte(len(payload) >> 8)
		hdr[2] = byte(len(payload) >> 16)
		hdr[3] = byte(len(payload) >> 24)
		return append(hdr[:], payload...)
	}
	valid, _ := Encode(Ping{Nonce: 1})
	f.Add(frame(valid))
	f.Add(frame(nil))                              // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}) // length > MaxFrame
	f.Add(frame(valid)[:3])                        // truncated header
	f.Add(append(frame(valid), frame(valid)...))   // two frames back to back
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(byteConn{r: bytes.NewReader(data)})
		for i := 0; i < 4; i++ { // drain a few frames, then EOF or error
			if _, err := c.Recv(); err != nil {
				break
			}
		}
		c = NewConn(byteConn{r: bytes.NewReader(data)})
		var sc RecvScratch
		for i := 0; i < 4; i++ {
			if _, err := c.RecvBorrowed(&sc); err != nil {
				return
			}
		}
	})
}
