package coord

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// adCatalog is the differential harness's catalog: a bid stream and an
// exclusion stream sharing request ids.
func adCatalog() *event.Catalog {
	c := event.NewCatalog()
	c.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "exchange_id", Kind: event.KindInt},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
		event.FieldDef{Name: "country", Kind: event.KindString},
	))
	c.MustRegister(event.MustSchema("exclusion",
		event.FieldDef{Name: "line_item_id", Kind: event.KindInt},
		event.FieldDef{Name: "reason", Kind: event.KindString},
	))
	return c
}

// A shard's receive loop lends each sub-batch's Tuple and Value cells to
// the engine for the length of one ApplyDriven. With the poison hook on,
// those cells turn to garbage the moment the apply returns — so if any
// window state kept a cell instead of a copy, the partials the shard
// hands back differ from those of a reference engine fed the same batches
// directly. They must be byte-identical, for every shape of state a
// window keeps.
func TestShardStateSurvivesPoisonedScratch(t *testing.T) {
	queries := []string{
		`select exclusion.reason, bid.country, count(*), sum(bid.bid_price) from bid, exclusion group by exclusion.reason, bid.country window 10s`,
		`select bid.country, bid.user_id, count(*), avg(bid.bid_price) from bid group by bid.country, bid.user_id window 10s`,
		`select bid.user_id, bid.country, bid.bid_price from bid window 10s`,
		`select bid.country, exclusion.reason from bid, exclusion window 10s`,
		`select top_k(bid.country, 3) from bid window 10s`,
		`select min(bid.country), max(bid.country), count_distinct(bid.country) from bid window 10s`,
		`select min(exclusion.reason), max(bid.country) from bid, exclusion window 10s`,
	}
	countries := []string{"us", "de", "jp", "br", "in", "a-rather-longer-country-name-than-the-others"}
	reasons := []string{"budget", "geo", "cap", ""}
	for qi, src := range queries {
		t.Run(fmt.Sprint(qi), func(t *testing.T) {
			q, err := ql.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			qp, err := ql.Analyze(q, adCatalog())
			if err != nil {
				t.Fatal(err)
			}
			plan := central.FromPlan(qp, 1, 0, 0, 2, 2)
			plan.Text = src
			qr, err := central.CompileQuery(plan)
			if err != nil {
				t.Fatal(err)
			}

			node := NewShardNode(adCatalog())
			node.PoisonBorrowed()
			cc, cs := transport.Pipe()
			go node.ServeConn(cs)
			client := newShardClient(cc, "shard-0", nil)
			defer client.close()
			if err := client.Start(qr); err != nil {
				t.Fatal(err)
			}
			ref := central.NewEngine()
			if err := ref.StartDriven(plan); err != nil {
				t.Fatal(err)
			}

			// Columns arrive in the order the plan projects them.
			colsOf := func(typeIdx int, rng *rand.Rand) []event.Value {
				var vals []event.Value
				for _, name := range qr.Plan().Columns[typeIdx] {
					switch name {
					case "user_id":
						vals = append(vals, event.Int(int64(rng.Intn(40))))
					case "bid_price":
						vals = append(vals, event.Float(float64(rng.Intn(1000))/8))
					case "country":
						vals = append(vals, event.Str(countries[rng.Intn(len(countries))]))
					case "reason":
						vals = append(vals, event.Str(reasons[rng.Intn(len(reasons))]))
					default:
						t.Fatalf("unexpected projected column %q", name)
					}
				}
				return vals
			}
			rng := rand.New(rand.NewSource(int64(qi) + 1))
			for batch := 0; batch < 60; batch++ {
				typeIdx := rng.Intn(len(qr.Plan().Types))
				b := transport.TupleBatch{QueryID: 1, HostID: fmt.Sprintf("h%d", rng.Intn(2)), TypeIdx: uint8(typeIdx)}
				for n := 1 + rng.Intn(50); n > 0; n-- {
					b.Tuples = append(b.Tuples, transport.Tuple{
						RequestID: uint64(rng.Intn(60)),
						TsNanos:   int64(rng.Intn(30)) * sec,
						Values:    colsOf(typeIdx, rng),
					})
				}
				ack, known, err := client.Apply(b)
				if err != nil || !known {
					t.Fatalf("batch %d: Apply: known=%v err=%v", batch, known, err)
				}
				if want, _ := ref.ApplyDriven(b); ack != want {
					t.Fatalf("batch %d: shard acked %+v, reference %+v", batch, ack, want)
				}
			}

			got, err := client.drain(1)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := ref.DrainDriven(1)
			if !ok {
				t.Fatal("reference drain: query unknown")
			}
			if len(got.Partials) != len(want) || len(want) != 3 {
				t.Fatalf("%d partials, reference %d, want 3 windows", len(got.Partials), len(want))
			}
			for i, w := range want {
				g := got.Partials[i]
				if g.Start != w.Start || g.End != w.End || !bytes.Equal(g.Data, w.Data) {
					t.Errorf("window [%d,%d): the shard's partial differs from the reference's", w.Start, w.End)
				}
			}
		})
	}
}

// A peer that stops reading while the pipe (or its socket buffer) is full
// must fail the RPC at the timeout — in the write — and latch the client
// down, not block the caller in Flush for ever.
func TestShardClientBoundsTheWrite(t *testing.T) {
	ours, theirs := net.Pipe() // unbuffered: a write blocks until the peer reads
	defer theirs.Close()
	c := newShardClient(transport.NewConn(ours), "stuck-shard", nil)
	c.timeout = 50 * time.Millisecond

	done := make(chan error, 1) // sized to the one send, so the goroutine never blocks
	go func() {
		_, _, err := c.Apply(transport.TupleBatch{QueryID: 1, HostID: "h", Tuples: []transport.Tuple{{RequestID: 1}}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Apply to a peer that never reads succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Apply is still blocked long after its timeout")
	}
	if !c.Down() {
		t.Error("the client did not latch down after the failed write")
	}
	if _, _, err := c.Apply(transport.TupleBatch{QueryID: 1}); err == nil {
		t.Error("a latched-down client accepted another RPC")
	}
}

// A manifest for a coordinator that has gone is refused in the
// coordinator's name, not a shard's.
func TestManifestClientNamesTheCoordinator(t *testing.T) {
	ours, theirs := transport.Pipe()
	theirs.Close()
	send := NewManifestClient(ours)
	if err := send(transport.BatchManifest{TupleBatch: transport.TupleBatch{QueryID: 1}}); err == nil {
		t.Fatal("a manifest to a closed coordinator succeeded")
	}
	err := send(transport.BatchManifest{TupleBatch: transport.TupleBatch{QueryID: 1}})
	if err == nil || !strings.Contains(err.Error(), "coordinator is down") || strings.Contains(err.Error(), "shard") {
		t.Errorf("the latched-down manifest client reports %v", err)
	}
}

// Shippers of different queries call SendBatch at once; each call must
// split in a scratch of its own. Two queries are routed from four
// goroutines and every tuple must be counted exactly once (run under
// -race in ci.sh).
func TestRouterConcurrentSendBatch(t *testing.T) {
	clk := &vclock{nanos: sec}
	tt := newTestTopo(t, 3, Options{Clock: clk.now})
	defer tt.close()
	cols := []*collector{{}, {}}
	for q := range cols {
		tt.startQuery(t, uint64(q+1), `select count(*) from ev window 10s`, time.Hour, cols[q])
	}
	const senders, batches, perBatch = 4, 50, 40
	errs := make(chan error, senders) // one result per sender
	for s := 0; s < senders; s++ {
		go func(s int) {
			var err error
			for i := 0; i < batches && err == nil; i++ {
				b := transport.TupleBatch{QueryID: uint64(s%2 + 1), HostID: fmt.Sprintf("h%d", s)}
				for k := 0; k < perBatch; k++ {
					b.Tuples = append(b.Tuples, transport.Tuple{RequestID: uint64(i*perBatch + k), TsNanos: 5 * sec, Values: []event.Value{event.Float(1)}})
				}
				err = tt.router.SendBatch(b)
			}
			errs <- err
		}(s)
	}
	for s := 0; s < senders; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for q, col := range cols {
		if _, ok := tt.coord.StopQuery(uint64(q + 1)); !ok {
			t.Fatalf("query %d unknown at stop", q+1)
		}
		var n int64
		for _, rw := range col.wins {
			n += countOf(t, rw)
		}
		if want := int64(senders / 2 * batches * perBatch); n != want {
			t.Errorf("query %d counted %d tuples, want %d", q+1, n, want)
		}
	}
}
