package transport

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scrub/internal/event"
)

// readWatch is a net.Conn that counts the Reads in progress on it, so a
// test can tell when its receiver sits blocked in the next one.
type readWatch struct {
	net.Conn
	reading atomic.Int32
}

func (w *readWatch) Read(p []byte) (int, error) {
	w.reading.Add(1)
	defer w.reading.Add(-1)
	return w.Conn.Read(p)
}

// subBatchOf returns a sub-batch of int and float tuples whose payload is
// just under size bytes.
func subBatchOf(size int) *ShardSubBatch {
	sb := &ShardSubBatch{Seq: 1, QueryID: 7, HostID: "bid-sj-1"}
	for i := 0; ; i++ {
		tp := Tuple{RequestID: uint64(i), TsNanos: int64(i), Values: []event.Value{
			event.Int(int64(i)), event.Float(float64(i) / 3), event.Int(int64(i % 7)),
		}}
		sb.Tuples = append(sb.Tuples, tp)
		if enc, _ := AppendEncode(nil, sb); len(enc) > size {
			sb.Tuples = sb.Tuples[:i]
			return sb
		}
	}
}

// liveHeap is HeapAlloc once the sync.Pools have been emptied: a pool's
// contents survive one collection as its victim cache and go at the next.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A connection holds the memory of a frame only while it carries one.
// Each of 64 pipe pairs has a receive loop on either end, which have
// exchanged an empty sub-batch from the same host and its ack. Then one
// end sends a ≈ 16 KiB sub-batch, which the other receives through its
// scratch and acks, and both loops block on their next receive. The
// pairs must hold what they held before that exchange, give or take the
// runtime's bookkeeping of blocked goroutines: not the frame, nor its
// cells, nor the buffer it was encoded in.
func TestIdleConnHoldsNoBuffers(t *testing.T) {
	const pairs = 64
	sb := subBatchOf(16<<10 - 4)
	type end struct {
		w *readWatch
		c *Conn
	}
	ends := make([][2]end, pairs)
	for i := range ends {
		a, b := net.Pipe()
		wa, wb := &readWatch{Conn: a}, &readWatch{Conn: b}
		ends[i] = [2]end{{wa, NewConn(wa)}, {wb, NewConn(wb)}}
	}
	acks := make(chan uint64, pairs) // tuples the acked sub-batch carried
	var wg sync.WaitGroup
	for i := range ends {
		a, b := ends[i][0].c, ends[i][1].c
		wg.Add(2)
		go func() { // the sub-batch's receiver, as a shard's loop
			defer wg.Done()
			var sc RecvScratch
			for {
				m, err := b.RecvBorrowed(&sc)
				if err != nil {
					return
				}
				p, ok := m.(*ShardSubBatch)
				if !ok {
					t.Errorf("received %s, want a sub-batch", Name(m))
					return
				}
				if err := b.Send(ShardBatchAck{Seq: uint64(len(p.Tuples)), Known: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() { // the ack's receiver, as a router's
			defer wg.Done()
			var sc RecvScratch
			for {
				m, err := a.RecvBorrowed(&sc)
				if err != nil {
					return
				}
				acks <- owned(m).(ShardBatchAck).Seq
			}
		}()
	}
	defer func() {
		for _, e := range ends {
			e[0].c.Close()
			e[1].c.Close()
		}
		wg.Wait()
	}()
	blocked := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			n := 0
			for _, e := range ends {
				n += int(e[0].w.reading.Load() + e[1].w.reading.Load())
			}
			if n == 2*pairs {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d receive loops blocked on a receive", n, 2*pairs)
			}
		}
	}

	exchange := func(sb *ShardSubBatch) {
		t.Helper()
		for _, e := range ends {
			if err := e[0].c.Send(sb); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < pairs; i++ {
			if n := <-acks; n != uint64(len(sb.Tuples)) {
				t.Fatalf("a sub-batch of %d tuples was acked as %d", len(sb.Tuples), n)
			}
		}
		blocked()
	}

	exchange(&ShardSubBatch{Seq: 1, QueryID: sb.QueryID, HostID: sb.HostID})
	before := liveHeap()
	exchange(sb)
	held := (int64(liveHeap()) - int64(before)) / pairs
	frame, _ := AppendEncode(nil, sb)
	t.Logf("a %d-byte frame, an ack back, then idle: %d bytes held per connection pair", len(frame)+4, held)
	if held > 1<<10 {
		t.Errorf("an idle connection pair holds %d bytes more than before its exchange, want at most 1 KiB", held)
	}
	for i, e := range ends {
		for _, c := range e {
			if len(c.c.rbuf) > minReadBuf {
				t.Fatalf("pair %d: a receive waits on a %d-byte read buffer, want at most %d", i, len(c.c.rbuf), minReadBuf)
			}
		}
	}
}

// Sending allocates nothing once the pool holds a buffer the frame fits.
func TestSendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops items at random")
	}
	sb := subBatchOf(16 << 10)
	c := NewConn(byteConn{})
	if err := c.Send(sb); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { c.Send(sb) }); n != 0 {
		t.Errorf("Send of a 16 KiB sub-batch allocates %v times, want 0", n)
	}
}

// The pools lend a buffer to one frame at a time. Connections on
// concurrent goroutines carry frames of three sizes in turn — a 40-byte
// ack, a 16 KiB sub-batch and a 1 MiB partial, the last past the pooled
// classes — and every receive loop poisons its scratch after each message
// it checked: each message must arrive as it was sent, whatever the other
// loops do with the buffers and cells they were lent before and after.
func TestPooledBuffersAreLentOnce(t *testing.T) {
	const conns, rounds = 4, 4
	base := subBatchOf(16 << 10)
	msg := func(conn, i int) Message {
		seq := uint64(conn<<16 | i)
		switch i % 3 {
		case 0:
			return ShardBatchAck{Seq: seq, Known: true, HasTs: true, MaxTs: int64(seq)}
		case 1:
			sb := *base
			sb.Seq, sb.HostID = seq, fmt.Sprintf("host-%d", conn)
			sb.Tuples = append([]Tuple(nil), base.Tuples...)
			for j := range sb.Tuples {
				sb.Tuples[j].RequestID ^= seq
			}
			return sb
		}
		data := bytes.Repeat([]byte{byte(seq)}, 1<<20)
		data[0], data[len(data)-1] = byte(conn), byte(i)
		return ShardPartials{Seq: seq, Partials: []WindowPartial{{Start: int64(i), End: int64(i + 1), Data: data}}}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*conns)
	for k := 0; k < conns; k++ {
		a, b := Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer a.Close()
			for i := 0; i < 3*rounds; i++ {
				if err := a.Send(msg(k, i)); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer b.Close()
			var sc RecvScratch
			for i := 0; i < 3*rounds; i++ {
				m, err := b.RecvBorrowed(&sc)
				if err != nil {
					errs <- err
					return
				}
				runtime.Gosched() // let the other loops take and give back buffers meanwhile
				want, _ := AppendEncode(nil, msg(k, i))
				got, err := AppendEncode(nil, owned(m))
				if err != nil || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("connection %d, message %d (%s): received differs from sent (%v)", k, i, Name(m), err)
					return
				}
				sc.Poison()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
