package chaos

import (
	"net"
	"testing"
	"time"

	"scrub/internal/transport"
)

// chaosPipe builds a transport conn pair with the client side wrapped by
// the injector under the given host name.
func chaosPipe(t *testing.T, inj *Injector, host string) (client, server *transport.Conn) {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan *transport.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()
	c, err := transport.DialWith(l.Addr(), time.Second, func(nc net.Conn) net.Conn { return inj.Wrap(host, nc) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	select {
	case s := <-accepted:
		t.Cleanup(func() { s.Close() })
		return c, s
	case <-time.After(2 * time.Second):
		t.Fatal("accept timed out")
		return nil, nil
	}
}

// recvNonces drains messages until the deadline or an error, returning
// the sequence numbers of the ManifestAcks received, in order.
func recvNonces(s *transport.Conn, n int, deadline time.Duration) []uint64 {
	var out []uint64
	s.SetReadDeadline(time.Now().Add(deadline))
	for len(out) < n {
		msg, err := s.Recv()
		if err != nil {
			break
		}
		if ack, ok := msg.(transport.ManifestAck); ok {
			out = append(out, ack.Seq)
		}
	}
	return out
}

func TestCleanLinkPassesThrough(t *testing.T) {
	inj := New(1)
	c, s := chaosPipe(t, inj, "h1")
	for i := uint64(1); i <= 20; i++ {
		if err := c.Send(transport.ManifestAck{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := recvNonces(s, 20, 2*time.Second)
	if len(got) != 20 {
		t.Fatalf("received %d/20 through a healthy link", len(got))
	}
	for i, n := range got {
		if n != uint64(i+1) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestDropIsDeterministic(t *testing.T) {
	run := func(seed int64) []uint64 {
		inj := New(seed)
		inj.Set("h1", Faults{DropProb: 0.5})
		c, s := chaosPipe(t, inj, "h1")
		for i := uint64(1); i <= 50; i++ {
			if err := c.Send(transport.ManifestAck{Seq: i}); err != nil {
				t.Fatal(err)
			}
		}
		return recvNonces(s, 50, 500*time.Millisecond)
	}
	a, b := run(42), run(42)
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("drop 0.5 delivered %d/50 — fault not applied", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical delivery (suspicious RNG wiring)")
	}
}

func TestDuplicateAndReorder(t *testing.T) {
	inj := New(7)
	inj.Set("dup", Faults{DupProb: 1})
	c, s := chaosPipe(t, inj, "dup")
	for i := uint64(1); i <= 3; i++ {
		if err := c.Send(transport.ManifestAck{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := recvNonces(s, 6, 2*time.Second)
	want := []uint64{1, 1, 2, 2, 3, 3}
	if len(got) != len(want) {
		t.Fatalf("dup=1 delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dup=1 delivered %v, want %v", got, want)
		}
	}

	inj2 := New(7)
	inj2.Set("ro", Faults{ReorderProb: 1})
	c2, s2 := chaosPipe(t, inj2, "ro")
	for i := uint64(1); i <= 4; i++ {
		if err := c2.Send(transport.ManifestAck{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	got2 := recvNonces(s2, 4, 2*time.Second)
	want2 := []uint64{2, 1, 4, 3} // adjacent swaps
	if len(got2) != len(want2) {
		t.Fatalf("reorder=1 delivered %v, want %v", got2, want2)
	}
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Fatalf("reorder=1 delivered %v, want %v", got2, want2)
		}
	}
}

func TestPartitionAndHeal(t *testing.T) {
	inj := New(3)
	c, s := chaosPipe(t, inj, "h1")

	if err := c.Send(transport.ManifestAck{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if got := recvNonces(s, 1, 2*time.Second); len(got) != 1 {
		t.Fatal("pre-partition message lost")
	}

	// Partition: sends succeed at the application, nothing arrives.
	inj.Set("h1", Partitioned())
	for i := uint64(2); i <= 5; i++ {
		if err := c.Send(transport.ManifestAck{Seq: i}); err != nil {
			t.Fatalf("send during partition must not error at the sender: %v", err)
		}
	}
	if got := recvNonces(s, 1, 300*time.Millisecond); len(got) != 0 {
		t.Fatalf("partitioned link delivered %v", got)
	}

	// Heal: the partition ate in-flight frames, but new sends flow.
	inj.Heal("h1")
	if err := c.Send(transport.ManifestAck{Seq: 6}); err != nil {
		t.Fatal(err)
	}
	got := recvNonces(s, 1, 2*time.Second)
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("post-heal delivery = %v, want [6]", got)
	}
}

func TestKillSeversConnections(t *testing.T) {
	inj := New(9)
	c, _ := chaosPipe(t, inj, "h1")
	if n := inj.Kill("h1"); n != 1 {
		t.Fatalf("Kill severed %d conns, want 1", n)
	}
	// The transport layer surfaces the abrupt close as a send error
	// (possibly not the very first send, depending on buffering).
	var failed bool
	for i := 0; i < 10; i++ {
		if err := c.Send(transport.ManifestAck{Seq: 99}); err != nil {
			failed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !failed {
		t.Fatal("sends kept succeeding on a killed connection")
	}
	if n := inj.Kill("h1"); n != 0 {
		t.Fatalf("second Kill found %d conns, want 0", n)
	}
}

func TestScheduleAppliesSteps(t *testing.T) {
	inj := New(5)
	done := make(chan struct{})
	defer close(done)
	go inj.Schedule(done, []Step{
		{At: 0, Host: "h1", Faults: &Faults{PartitionSend: true}},
		{At: 30 * time.Millisecond, Host: "h1"}, // heal
	})
	deadline := time.Now().Add(2 * time.Second)
	for !inj.faultsFor("h1").PartitionSend {
		if time.Now().After(deadline) {
			t.Fatal("step 1 never applied")
		}
		time.Sleep(time.Millisecond)
	}
	for inj.faultsFor("h1").PartitionSend {
		if time.Now().After(deadline) {
			t.Fatal("heal step never applied")
		}
		time.Sleep(time.Millisecond)
	}
}
