package host

import (
	"context"
	"sync"
	"testing"
	"time"

	"scrub/internal/transport"
)

// fakeCentral accepts data connections and records hellos + batches.
type fakeCentral struct {
	l       *transport.Listener
	mu      sync.Mutex
	hellos  []string
	batches []transport.TupleBatch
	ends    int // connections read to their end
}

func newFakeCentral(t *testing.T) *fakeCentral {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveFakeCentral(t, l)
}

// serveFakeCentral records what every connection to l sends.
func serveFakeCentral(t *testing.T, l *transport.Listener) *fakeCentral {
	fc := &fakeCentral{l: l}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					msg, err := conn.Recv()
					if err != nil {
						fc.mu.Lock()
						fc.ends++
						fc.mu.Unlock()
						return
					}
					fc.mu.Lock()
					switch m := msg.(type) {
					case transport.DataHello:
						fc.hellos = append(fc.hellos, m.HostID)
					case transport.TupleBatch:
						fc.batches = append(fc.batches, m)
					}
					fc.mu.Unlock()
				}
			}()
		}
	}()
	return fc
}

func (fc *fakeCentral) counts() (hellos, batches int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return len(fc.hellos), len(fc.batches)
}

func TestNetSinkHelloAndShip(t *testing.T) {
	fc := newFakeCentral(t)
	sink := NewNetSink(fc.l.Addr(), "h-7")
	defer sink.Close()

	if err := sink.SendBatch(transport.TupleBatch{QueryID: 1, HostID: "h-7"}); err != nil {
		t.Fatal(err)
	}
	if err := sink.SendBatch(transport.TupleBatch{QueryID: 1, HostID: "h-7"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		hellos, batches := fc.counts()
		if hellos == 1 && batches == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hellos=%d batches=%d, want 1/2", hellos, batches)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNetSinkRedialsAfterFailure(t *testing.T) {
	fc := newFakeCentral(t)
	sink := NewNetSink(fc.l.Addr(), "h-8")
	defer sink.Close()
	if err := sink.SendBatch(transport.TupleBatch{QueryID: 1}); err != nil {
		t.Fatal(err)
	}
	// Kill the connection from the sink side; the next send must redial
	// (first send may fail — drop-not-retry is the contract — but a
	// subsequent one succeeds).
	sink.Close()
	var ok bool
	for i := 0; i < 10; i++ {
		if err := sink.SendBatch(transport.TupleBatch{QueryID: 2}); err == nil {
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Fatal("sink never recovered")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		hellos, _ := fc.counts()
		if hellos == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expected a second DataHello after redial, got %d", hellos)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNetSinkUnreachable(t *testing.T) {
	// Nothing listens on port 1.
	sink := NewNetSinkWith("127.0.0.1:1", "h", NetSinkOptions{DialTimeout: 50 * time.Millisecond})
	if err := sink.SendBatch(transport.TupleBatch{QueryID: 1}); err == nil {
		t.Fatal("send to unreachable central should fail (and be counted by the agent)")
	}
}

func TestRunControlAppliesQueryObjects(t *testing.T) {
	// A fake query server: accepts the agent's registration, pushes a
	// HostQuery, later a StopQuery.
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	registered := make(chan transport.RegisterHost, 1)
	conns := make(chan *transport.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		registered <- msg.(transport.RegisterHost)
		conns <- conn
	}()

	a := newAgent(t, &collectSink{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = a.RunControlWith(ctx, l.Addr(), ControlOptions{}) }()

	var reg transport.RegisterHost
	select {
	case reg = <-registered:
	case <-time.After(3 * time.Second):
		t.Fatal("agent never registered")
	}
	if reg.HostID != "h1" || reg.Service != "BidServers" || reg.DC != "DC1" {
		t.Fatalf("registration = %+v", reg)
	}
	conn := <-conns
	defer conn.Close()

	if err := conn.Send(transport.HostQuery{QueryID: 9, EventType: "bid"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(a.ActiveQueries()) == 1 })

	if err := conn.Send(transport.StopQuery{QueryID: 9}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(a.ActiveQueries()) == 0 })

	cancel()
}

func TestRunControlReconnects(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	registrations := make(chan struct{}, 4)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := conn.Recv(); err != nil {
					return
				}
				registrations <- struct{}{}
				// Drop the connection immediately: the agent must retry.
			}()
		}
	}()

	a := newAgent(t, &collectSink{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = a.RunControlWith(ctx, l.Addr(), ControlOptions{}) }()

	for i := 0; i < 2; i++ {
		select {
		case <-registrations:
		case <-time.After(5 * time.Second):
			t.Fatalf("registration %d never arrived (no reconnect?)", i+1)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
