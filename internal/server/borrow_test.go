package server

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/transport"
)

// borrowCatalog has a string column, so that window state a batch leaves
// behind — group keys, raw rows, sketches, min/max — can keep strings.
func borrowCatalog() *event.Catalog {
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
		event.FieldDef{Name: "country", Kind: event.KindString},
	))
	return cat
}

// A hub's data loop lends each batch's Tuple and Value cells to the
// executor for the length of one HandleBatch. With the poison hook on,
// those cells turn to garbage once the batch is handled, so if the
// executor — a single-process engine, or a coordinator that routes the
// batch to its shards — kept a cell instead of a copy, its windows would
// differ from those of an engine fed the same batches directly. They must
// render the same, row for row.
func TestHubDataLoopBorrows(t *testing.T) {
	queries := []string{
		`select country, count(*), sum(bid_price) from bid group by country window 1h duration 1h`,
		`select user_id, country, bid_price from bid window 1h duration 1h`,
		`select top_k(country, 3) from bid window 1h duration 1h`,
		`select min(country), max(country), count_distinct(country) from bid window 1h duration 1h`,
	}
	countries := []string{"us", "de", "jp", "br", "a-rather-longer-country-name-than-the-others"}
	type row struct {
		user  int64
		price float64
		ctry  string
	}
	rng := rand.New(rand.NewSource(1))
	var batches [][]row
	for b := 0; b < 40; b++ {
		var rows []row
		for n := 1 + rng.Intn(50); n > 0; n-- {
			rows = append(rows, row{int64(rng.Intn(40)), float64(rng.Intn(1000)) / 8, countries[rng.Intn(len(countries))]})
		}
		batches = append(batches, rows)
	}

	// run submits the queries to srv, sends every batch to each through
	// send, and returns each query's windows, rendered, once all tuples
	// are in and the queries are cancelled.
	run := func(t *testing.T, srv *Server, send func(transport.TupleBatch)) []string {
		t.Helper()
		var mu sync.Mutex
		var out []string
		var done sync.WaitGroup
		for qi, text := range queries {
			done.Add(1)
			info, err := srv.Submit(text, Callbacks{
				Window: func(rw transport.ResultWindow) {
					mu.Lock()
					defer mu.Unlock()
					for _, r := range rw.Rows {
						out = append(out, fmt.Sprint(qi, r))
					}
				},
				Done: func(transport.QueryDone) { done.Done() },
			})
			if err != nil {
				t.Fatal(err)
			}
			srv.mu.Lock()
			cols := srv.queries[info.ID].plan.Columns["bid"]
			srv.mu.Unlock()
			ts := time.Now().UnixNano() // in the span, which starts at submission
			total := 0
			for _, rows := range batches {
				b := transport.TupleBatch{QueryID: info.ID, HostID: "h1"}
				for i, r := range rows {
					tp := transport.Tuple{RequestID: uint64(i), TsNanos: ts}
					for _, c := range cols {
						switch c {
						case "user_id":
							tp.Values = append(tp.Values, event.Int(r.user))
						case "bid_price":
							tp.Values = append(tp.Values, event.Float(r.price))
						case "country":
							tp.Values = append(tp.Values, event.Str(r.ctry))
						}
					}
					b.Tuples = append(b.Tuples, tp)
				}
				b.MatchedTotal, b.SampledTotal, b.EffRate = uint64(total+len(rows)), uint64(total+len(rows)), 1
				total += len(rows)
				send(b)
			}
			waitCond(t, fmt.Sprintf("query %d's tuples in", qi), func() bool {
				st, _ := srv.cfg.Engine.Stats(info.ID)
				return st.TuplesIn == uint64(total)
			})
			if err := srv.Cancel(info.ID); err != nil {
				t.Fatal(err)
			}
		}
		done.Wait()
		mu.Lock()
		defer mu.Unlock()
		if len(out) == 0 {
			t.Fatal("no rows")
		}
		return out
	}

	newServer := func(t *testing.T, eng central.Executor, d Dispatcher) (*Server, *cluster.Registry) {
		t.Helper()
		registry := cluster.NewRegistry()
		_ = registry.Register(cluster.HostInfo{Name: "h1", Service: "BidServers"})
		srv, err := New(Config{Catalog: borrowCatalog(), Registry: registry, Engine: eng, Dispatcher: d, TickInterval: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv, registry
	}
	ref, _ := newServer(t, central.NewEngine(), newRecordingDispatcher())
	want := run(t, ref, ref.HandleBatch)

	for name, eng := range map[string]func(t *testing.T) central.Executor{
		"engine": func(*testing.T) central.Executor { return central.NewEngine() },
		"coordinator": func(t *testing.T) central.Executor {
			c := coord.NewCoordinator(central.Options{})
			for i := 0; i < 2; i++ {
				l, err := transport.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { l.Close() })
				go coord.NewShardNode(borrowCatalog()).Serve(l)
				if err := c.AddShard(l.Addr()); err != nil {
					t.Fatal(err)
				}
			}
			return c
		},
	} {
		t.Run(name, func(t *testing.T) {
			hub, err := NewHub(cluster.NewRegistry(), "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hub.SetLogf(func(string, ...any) {})
			hub.poison.Store(true)
			srv, _ := newServer(t, eng(t), hub)
			hub.SetServer(srv)
			hub.Serve()
			t.Cleanup(func() { hub.Close() })
			data := dialT(t, hub.DataAddr())
			if err := data.Send(transport.DataHello{HostID: "h1"}); err != nil {
				t.Fatal(err)
			}
			got := run(t, srv, func(b transport.TupleBatch) {
				if err := data.Send(b); err != nil {
					t.Fatal(err)
				}
			})
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("windows through a poisoning data loop differ from the reference:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}
