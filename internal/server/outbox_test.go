package server

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// TestQueuedWindowsOwnTheirMemory holds a client's writer (its sink
// waits at a gate) while the merger closes and queues windows of a
// grouped and a raw query, closes later windows on top of them and stops
// both queries. Released, the writer must deliver every window exactly as
// the merger rendered it — rows, string values and Streams included — so
// nothing the merger does after an emit reaches a queued window.
func TestQueuedWindowsOwnTheirMemory(t *testing.T) {
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "exchange", Kind: event.KindString},
	))
	registry := cluster.NewRegistry()
	hosts := []string{"h1", "h2", "h3"}
	for _, h := range hosts {
		_ = registry.Register(cluster.HostInfo{Name: h, Service: "BidServers"})
	}
	epoch := time.Unix(1_700_000_000, 0)
	srv, err := New(Config{
		Catalog: cat, Registry: registry, Engine: central.NewEngine(),
		Dispatcher:   newRecordingDispatcher(),
		TickInterval: time.Hour, // windows close by event time only
		Clock:        func() time.Time { return epoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	server, client := transport.Pipe()
	defer client.Close()
	defer server.Close()
	// The writer takes the first message and waits at the gate.
	gate, holding := make(chan struct{}), make(chan struct{}, 1)
	write := clientSink(server)
	c := NewEgress(func(m transport.Message, deadline time.Time) error {
		select {
		case holding <- struct{}{}:
		default:
		}
		<-gate
		return write(m, deadline)
	}, func(err error) {
		if err != nil {
			t.Errorf("the egress was cut: %v", err)
		}
	})

	// What the merger rendered, encoded at the instant it emitted.
	var mu sync.Mutex
	var rendered [][]byte
	cb := Callbacks{
		Window: func(rw transport.ResultWindow) {
			b, err := transport.AppendEncode(nil, rw)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			rendered = append(rendered, b)
			mu.Unlock()
			c.Queue(rw)
		},
		Done: func(d transport.QueryDone) { c.Queue(d) },
	}
	texts := []string{
		`select exchange, count(*), max(user_id) from bid group by exchange window 1s duration 1h`,
		`select exchange, user_id from bid window 1s duration 1h`,
	}
	var ids []uint64
	var cols [][]string
	for _, text := range texts {
		info, err := srv.Submit(text, cb)
		if err != nil {
			t.Fatal(err)
		}
		q, _ := ql.Parse(text)
		p, err := ql.Analyze(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		cols = append(cols, p.Columns["bid"])
	}

	// Ten seconds of events from three hosts; each batch closes the
	// windows a second behind it. Strings are built per tuple, so a window
	// that aliased a batch or a window's state would show it.
	rid := uint64(0)
	for sec := 0; sec < 10; sec++ {
		for hi, h := range hosts {
			for qi, id := range ids {
				var tuples []transport.Tuple
				for k := 0; k < 5; k++ {
					rid++
					vals := make([]event.Value, len(cols[qi]))
					for ci, col := range cols[qi] {
						switch col {
						case "user_id":
							vals[ci] = event.Int(int64(sec*100 + hi*10 + k))
						case "exchange":
							vals[ci] = event.Str(fmt.Sprintf("ex-%d-%d", sec, k%2))
						}
					}
					tuples = append(tuples, transport.Tuple{RequestID: rid,
						TsNanos: epoch.Add(time.Duration(sec)*time.Second + time.Duration(k)*time.Millisecond).UnixNano(), Values: vals})
				}
				srv.HandleBatch(transport.TupleBatch{QueryID: id, HostID: h, Tuples: tuples,
					MatchedTotal: uint64(5 * (sec + 1)), SampledTotal: uint64(5 * (sec + 1)), EffRate: 1})
			}
		}
	}
	for _, id := range ids {
		if err := srv.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	emitted := len(rendered)
	mu.Unlock()
	if emitted < 2*10 {
		t.Fatalf("the merger emitted %d windows, want 10 per query", emitted)
	}
	// Everything waits for the writer, which goes on only now: the client
	// must receive every window and QueryDone after this point.
	<-holding
	close(gate)
	defer func() {
		c.Close()
		<-c.Done()
		server.Close()
	}()

	var got []transport.ResultWindow
	for done := 0; done < len(ids); {
		msg, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case transport.ResultWindow:
			got = append(got, m)
		case transport.QueryDone:
			done++
		}
	}
	if len(got) != emitted {
		t.Fatalf("the client received %d windows, the merger emitted %d", len(got), emitted)
	}
	for i, b := range rendered {
		want, err := transport.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("window %d changed in the outbox:\n got %+v\nwant %+v", i, got[i], want)
		}
		if len(got[i].Streams) != len(hosts) || len(got[i].Rows) == 0 {
			t.Errorf("window %d has %d streams and %d rows, want %d streams and rows", i, len(got[i].Streams), len(got[i].Rows), len(hosts))
		}
	}
}
