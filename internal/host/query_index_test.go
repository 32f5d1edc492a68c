package host

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/replay"
	"scrub/internal/transport"
)

// Tests for the shared query index: many concurrent queries compiled into
// one per-type evaluation DAG (see typeProgram).
// The contract under test is that sharing is invisible — per-query tuple
// streams, counters, and sampling are bit-identical to running every
// query independently — while the hot path stays allocation-free.

// predSpellings returns predicate trees over the bid schema, including
// equivalent-but-differently-spelled pairs so canonicalization sharing is
// exercised, plus nil (match-all).
func predSpellings() []expr.Node {
	price := func() expr.Node { return expr.FieldRef{Type: "bid", Name: "bid_price"} }
	city := func() expr.Node { return expr.FieldRef{Type: "bid", Name: "city"} }
	user := func() expr.Node { return expr.FieldRef{Type: "bid", Name: "user_id"} }
	gt := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpGt, L: l, R: r} }
	eq := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpEq, L: l, R: r} }
	and := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpAnd, L: l, R: r} }
	or := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpOr, L: l, R: r} }
	return []expr.Node{
		nil,
		gt(price(), expr.Lit{Val: event.Float(0.5)}),
		// Same conjunction spelled both ways: canonically identical.
		and(eq(city(), expr.Lit{Val: event.Str("sf")}), gt(price(), expr.Lit{Val: event.Float(0.5)})),
		and(gt(price(), expr.Lit{Val: event.Float(0.5)}), eq(city(), expr.Lit{Val: event.Str("sf")})),
		or(eq(expr.Binary{Op: expr.OpMod, L: user(), R: expr.Lit{Val: event.Int(2)}}, expr.Lit{Val: event.Int(0)}),
			expr.Binary{Op: expr.OpLe, L: price(), R: expr.Lit{Val: event.Float(0.2)}}),
		expr.In{X: city(), List: []expr.Node{
			expr.Lit{Val: event.Str("sf")}, expr.Lit{Val: event.Str("nyc")}, expr.Lit{Val: event.Str("sf")}}},
		expr.Unary{Op: expr.OpNot, X: gt(price(), expr.Lit{Val: event.Float(0.5)})},
		// x >= 3 && x >= 3: idempotent duplicate collapses in canon form.
		and(expr.Binary{Op: expr.OpGe, L: user(), R: expr.Lit{Val: event.Int(3)}},
			expr.Binary{Op: expr.OpGe, L: user(), R: expr.Lit{Val: event.Int(3)}}),
	}
}

// decoyPreds has one predicate for every instruction the register
// program specialises (and the boxed ones beside them), so a dispatch
// differential that installs all of them runs every typed path next to
// the queries it checks.
func decoyPreds() []expr.Node {
	f := func(name string) expr.Node { return expr.FieldRef{Type: "bid", Name: name} }
	bin := func(op expr.Op, l, r expr.Node) expr.Node { return expr.Binary{Op: op, L: l, R: r} }
	i := func(v int64) expr.Node { return expr.Lit{Val: event.Int(v)} }
	s := func(v string) expr.Node { return expr.Lit{Val: event.Str(v)} }
	fl := func(v float64) expr.Node { return expr.Lit{Val: event.Float(v)} }
	return []expr.Node{
		bin(expr.OpLt, i(2), f("user_id")),      // literal on the left
		bin(expr.OpGt, f("bid_price"), i(1)),    // int literal, float column
		bin(expr.OpLe, f("user_id"), fl(2.5)),   // float literal, int column
		bin(expr.OpNe, f("city"), s("sf")),      // string equality
		bin(expr.OpLt, f("city"), s("nyc")),     // string ordering
		bin(expr.OpLike, f("city"), s("%y%")),   // LIKE
		bin(expr.OpContains, f("city"), s("a")), // contains: boxed
		// field % literal = literal, on a column and on a system field
		bin(expr.OpEq, bin(expr.OpMod, f("user_id"), i(4)), i(1)),
		bin(expr.OpEq, bin(expr.OpMod, f(event.FieldRequestID), i(2)), i(0)),
		// IN: all ints, all strings (negated), and a mixed list (boxed)
		expr.In{X: f("user_id"), List: []expr.Node{i(1), i(2), i(5)}},
		expr.In{X: f("city"), List: []expr.Node{s("la"), s("")}, Negate: true},
		expr.In{X: f("user_id"), List: []expr.Node{i(1), fl(2)}},
		// time literal against the timestamp system field
		bin(expr.OpGe, f(event.FieldTimestamp), expr.Lit{Val: event.TimeNanos(time.Now().UnixNano() + 700)}),
		// negation, field against field (boxed), float arithmetic (arithValue)
		bin(expr.OpLt, expr.Unary{Op: expr.OpNeg, X: f("bid_price")}, fl(-0.5)),
		bin(expr.OpLt, f("user_id"), f("bid_price")),
		bin(expr.OpOr, bin(expr.OpGt, bin(expr.OpMul, f("bid_price"), i(2)), fl(1.5)), bin(expr.OpEq, f("city"), s(""))),
	}
}

var colSets = [][]string{
	{"user_id", "city"},
	{"city", "user_id"}, // same columns, different order
	{"bid_price"},
	{"user_id", "city"}, // repeat of the first
	nil,                 // zero-width projection
}

func TestSharedIndexZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; AllocsPerRun over the pooled evaluation context is meaningless")
	}
	// 16 queries cycling through 8 predicate spellings and 5 column sets:
	// the shared-DAG dispatch with fan-out, memoized subexpressions, and
	// per-query projection must stay allocation-free, exactly like the old
	// per-query loop.
	a, err := New(Config{
		HostID: "h", Service: "s", Catalog: testCatalog(),
		Sink:      SinkFunc(func(transport.TupleBatch) error { return nil }),
		QueueSize: 1 << 18, BatchSize: 8192,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	preds := predSpellings()
	for i := 0; i < 16; i++ {
		if err := a.Start(transport.HostQuery{
			QueryID:   uint64(i + 1),
			EventType: "bid",
			Pred:      preds[i%len(preds)],
			Columns:   colSets[i%len(colSets)],
		}); err != nil {
			t.Fatal(err)
		}
	}
	ev := bidEvent(1, 4, "sf", 1.0, time.Now().UnixNano())
	a.Log(ev) // size the chunks and the pooled evaluation context
	if allocs := testing.AllocsPerRun(500, func() { a.Log(ev) }); allocs != 0 {
		t.Errorf("shared-index Log allocates %.1f/op, want 0", allocs)
	}
	a.Flush()
	if st := a.Stats(); st.Shipped == 0 {
		t.Error("measured tuples never shipped")
	}
}

func TestRebuildUnderConcurrentLogPredicates(t *testing.T) {
	// Start/Stop churn rebuilds the shared program while Log goroutines
	// dispatch through whichever snapshot they loaded. A stable query rides
	// along the whole time; every tuple it ships must satisfy its own
	// predicate regardless of how often the DAG around it was rebuilt.
	sink := &collectSink{}
	a := newAgent(t, sink)
	stable := transport.HostQuery{
		QueryID: 1, EventType: "bid",
		Pred: expr.Binary{Op: expr.OpEq,
			L: expr.FieldRef{Type: "bid", Name: "city"},
			R: expr.Lit{Val: event.Str("sf")}},
		Columns: []string{"city", "user_id"},
	}
	if err := a.Start(stable); err != nil {
		t.Fatal(err)
	}
	preds := predSpellings()
	now := time.Now().UnixNano()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cities := []string{"sf", "nyc", "la"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					a.Log(bidEvent(uint64(i), int64(w), cities[i%3], float64(i%10)/5, now))
				}
			}
		}(w)
	}
	for i := 0; i < 60; i++ {
		qid := uint64(100 + i)
		if err := a.Start(transport.HostQuery{
			QueryID: qid, EventType: "bid",
			Pred:    preds[i%len(preds)],
			Columns: colSets[i%len(colSets)],
		}); err != nil {
			t.Error(err)
		}
		time.Sleep(500 * time.Microsecond)
		a.Stop(qid)
	}
	close(stop)
	wg.Wait()
	a.Flush()
	for _, b := range sink.all() {
		if b.QueryID != 1 {
			continue
		}
		for _, tu := range b.Tuples {
			if got, _ := tu.Values[0].AsStr(); got != "sf" {
				t.Fatalf("stable query shipped city %q, want sf", got)
			}
		}
	}
}

// refQuery is the naive per-query dispatch the shared index replaced: an
// independently compiled predicate over the ORIGINAL (un-canonicalized)
// tree and its own projection loop. It is the semantic oracle for the
// differential test below.
type refQuery struct {
	id             uint64
	pred           func(expr.Row) bool
	colIdx         []int
	startNs, endNs int64
	matched        uint64
	tuples         []transport.Tuple
}

func (r *refQuery) offer(ev *event.Event, ts int64) {
	if ts < r.startNs {
		return
	}
	if r.endNs != 0 && ts >= r.endNs {
		return
	}
	if r.pred != nil && !r.pred(expr.EventRow{Event: ev}) {
		return
	}
	r.matched++
	vals := make([]event.Value, len(r.colIdx))
	for j, idx := range r.colIdx {
		vals[j] = ev.At(idx)
	}
	if len(vals) == 0 {
		vals = nil
	}
	r.tuples = append(r.tuples, transport.Tuple{RequestID: ev.RequestID, TsNanos: ts, Values: vals})
}

func TestSharedDispatchMatchesReference(t *testing.T) {
	// Differential oracle for the shared index: one query for every decoy
	// predicate (every specialised instruction) plus 24 random ones (heavy
	// predicate and projection overlap), each with a span that is bounded,
	// start-only or end-only (a sixth each) or open (half), dispatched
	// through the shared index must produce, per query, exactly the tuple
	// stream and matched count of a naive loop that compiles every
	// original predicate independently — over events that sometimes have a
	// field unset or fewer values than the schema.
	// Rate 1 everywhere so sampling cannot hide a divergence.
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sink := &collectSink{}
			// The queue must hold the full run: nothing drains it until the
			// final Flush, and a drop would be a (correct) divergence from
			// the lossless reference.
			a := newAgent(t, sink, func(c *Config) {
				c.FlushInterval = time.Hour
				c.QueueSize = 1 << 17
			})
			preds, decoys := predSpellings(), decoyPreds()
			base := time.Now().UnixNano()
			const n = 2000
			refs := make(map[uint64]*refQuery)
			for i := 0; i < len(decoys)+24; i++ {
				qid := uint64(i + 1)
				hq := transport.HostQuery{
					QueryID: qid, EventType: "bid",
					Pred:    preds[rng.Intn(len(preds))],
					Columns: colSets[rng.Intn(len(colSets))],
				}
				if i < len(decoys) {
					hq.Pred = decoys[i]
				}
				lo := rng.Int63n(n)
				hi := lo + 1 + rng.Int63n(n)
				switch rng.Intn(6) {
				case 0:
					hq.StartNanos, hq.EndNanos = base+lo, base+hi
				case 1:
					hq.StartNanos = base + lo
				case 2:
					hq.EndNanos = base + hi
				}
				if err := a.Start(hq); err != nil {
					t.Fatal(err)
				}
				ref := &refQuery{id: qid, startNs: hq.StartNanos, endNs: hq.EndNanos}
				if hq.Pred != nil {
					checked, _, err := expr.Check(hq.Pred, expr.SchemaResolver{Schemas: []*event.Schema{bidSchema}})
					if err != nil {
						t.Fatal(err)
					}
					ev, err := expr.Compile(checked)
					if err != nil {
						t.Fatal(err)
					}
					ref.pred = expr.Predicate(ev)
				}
				for _, col := range hq.Columns {
					ref.colIdx = append(ref.colIdx, bidSchema.FieldIndex(col))
				}
				refs[qid] = ref
			}
			cities := []string{"sf", "nyc", "la", ""}
			for i := 0; i < n; i++ {
				ev := bidEvent(uint64(i), rng.Int63n(6), cities[rng.Intn(len(cities))],
					float64(rng.Intn(200))/100-0.3, base+int64(i))
				switch rng.Intn(12) {
				case 0:
					ev.Values[rng.Intn(len(ev.Values))] = event.Invalid // unset field
				case 1:
					ev.Values = ev.Values[:rng.Intn(len(ev.Values))] // short event
				}
				a.Log(ev)
				for _, ref := range refs {
					ref.offer(ev, ev.TimeNanos)
				}
			}
			a.Flush()
			if st := a.Stats(); st.QueueDrops != 0 {
				t.Fatalf("queue dropped %d tuples; size the queue for the run", st.QueueDrops)
			}
			got := make(map[uint64][]transport.Tuple)
			lastMatched := make(map[uint64]uint64)
			for _, b := range sink.all() {
				got[b.QueryID] = append(got[b.QueryID], b.Tuples...)
				lastMatched[b.QueryID] = b.MatchedTotal
			}
			for qid, ref := range refs {
				if m := lastMatched[qid]; m != ref.matched {
					t.Errorf("query %d: matched %d, reference %d", qid, m, ref.matched)
				}
				gt := got[qid]
				if len(gt) != len(ref.tuples) {
					t.Fatalf("query %d: %d tuples, reference %d", qid, len(gt), len(ref.tuples))
				}
				for i := range gt {
					w := ref.tuples[i]
					g := gt[i]
					if g.RequestID != w.RequestID || g.TsNanos != w.TsNanos || len(g.Values) != len(w.Values) {
						t.Fatalf("query %d tuple %d: got %+v, want %+v", qid, i, g, w)
					}
					for j := range g.Values {
						// An unset column ships as Invalid, which Equal never equates.
						if gv, wv := g.Values[j], w.Values[j]; gv.Kind() != wv.Kind() || (gv.IsValid() && !gv.Equal(wv)) {
							t.Fatalf("query %d tuple %d col %d: got %v, want %v", qid, i, j, g.Values[j], w.Values[j])
						}
					}
				}
			}
		})
	}
}

func TestSharedPredicateIndependentAccounting(t *testing.T) {
	// Two queries with the identical predicate and column set share one
	// DAG node, but sampling and accounting stay per-query: the
	// downsampled query ships fewer tuples while its sibling at rate 1
	// ships every match, and both report exact Mᵢ.
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) { c.FlushInterval = time.Hour })
	pred := func() expr.Node {
		return expr.Binary{Op: expr.OpGt,
			L: expr.FieldRef{Type: "bid", Name: "bid_price"},
			R: expr.Lit{Val: event.Float(0.5)}}
	}
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", Pred: pred(), Columns: []string{"user_id"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(transport.HostQuery{
		QueryID: 2, EventType: "bid", Pred: pred(), Columns: []string{"user_id"},
		SampleEvents: 0.25,
	}); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	const n = 4000
	for i := 0; i < n; i++ {
		a.Log(bidEvent(uint64(i), int64(i), "sf", 1.0, now+int64(i)))
	}
	a.Flush()
	counts := make(map[uint64]int)
	matched := make(map[uint64]uint64)
	sampled := make(map[uint64]uint64)
	for _, b := range sink.all() {
		counts[b.QueryID] += len(b.Tuples)
		matched[b.QueryID] = b.MatchedTotal
		sampled[b.QueryID] = b.SampledTotal
	}
	if matched[1] != n || matched[2] != n {
		t.Errorf("matched = %d/%d, want %d for both", matched[1], matched[2], n)
	}
	if counts[1] != n {
		t.Errorf("rate-1 query shipped %d tuples, want %d", counts[1], n)
	}
	if uint64(counts[2]) != sampled[2] {
		t.Errorf("sampled query shipped %d tuples but reported mᵢ=%d", counts[2], sampled[2])
	}
	if counts[2] == 0 || counts[2] >= n/2 {
		t.Errorf("rate-0.25 query shipped %d of %d tuples, want roughly a quarter", counts[2], n)
	}
}

// TestForeignSchemaMatchesByName: the dispatch snapshot finds an event's
// type by *Schema identity first while few types are queried, but an event
// built on another *Schema of the same name — a second catalog in the
// process — still reaches the type's queries, and one of another name
// still reaches none. The same holds past scanTypes, where the snapshot
// goes by name alone.
func TestForeignSchemaMatchesByName(t *testing.T) {
	for _, extra := range []int{0, scanTypes} {
		t.Run(fmt.Sprintf("types=%d", extra+1), func(t *testing.T) {
			cat := testCatalog()
			sink := &collectSink{}
			a := newAgent(t, sink, func(c *Config) { c.Catalog = cat })
			if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", Columns: []string{"user_id"}}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < extra; i++ {
				s := event.MustSchema(fmt.Sprintf("extra%d", i), event.FieldDef{Name: "user_id", Kind: event.KindInt})
				cat.MustRegister(s)
				if err := a.Start(transport.HostQuery{QueryID: uint64(i + 2), EventType: s.Name()}); err != nil {
					t.Fatal(err)
				}
			}
			if scanned := len(a.byType.Load().few); (scanned != 0) != (extra == 0) {
				t.Fatalf("%d types queried, %d scanned by identity", extra+1, scanned)
			}
			foreign := event.MustSchema("bid",
				event.FieldDef{Name: "user_id", Kind: event.KindInt},
				event.FieldDef{Name: "city", Kind: event.KindString},
				event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
			)
			other := event.MustSchema("click", event.FieldDef{Name: "user_id", Kind: event.KindInt})
			now := time.Now().UnixNano()
			a.Log(bidEvent(1, 7, "sf", 1.0, now))
			a.Log(event.NewBuilder(foreign).SetRequestID(2).SetTimeNanos(now).Int("user_id", 8).MustBuild())
			a.Log(event.NewBuilder(other).SetRequestID(3).SetTimeNanos(now).Int("user_id", 9).MustBuild())
			a.Flush()
			got := sink.tuples()
			if len(got) != 2 || got[0].RequestID != 1 || got[1].RequestID != 2 {
				t.Fatalf("shipped %+v, want requests 1 (the catalog's schema) and 2 (a foreign schema of the same name)", got)
			}
		})
	}
}

// TestSubscriberListsExactLength: a snapshot's subscriber list is held at
// its exact length, not at the capacity an install's insert or a stop's
// delete left behind — with 64 queries on a type, the grown slice's spare
// half would be a standing cost of every snapshot.
func TestSubscriberListsExactLength(t *testing.T) {
	a := newAgent(t, &collectSink{})
	check := func(at string) {
		t.Helper()
		for name, tp := range a.byType.Load().byName {
			if len(tp.subs) != cap(tp.subs) {
				t.Fatalf("%s: type %s holds %d subscribers in a list of capacity %d", at, name, len(tp.subs), cap(tp.subs))
			}
		}
	}
	preds := predSpellings()
	for i := 0; i < 64; i++ {
		hq := transport.HostQuery{QueryID: uint64(i + 1), EventType: "bid", Pred: preds[i%len(preds)], Columns: colSets[i%len(colSets)]}
		if i%2 == 0 {
			hq.StartNanos, hq.EndNanos = int64(i+1)*1000, int64(i+2)*1000
		}
		if err := a.Start(hq); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after %d starts", i+1))
	}
	a.Stop(7)
	check("after a stop")
}

// TestSeededInstallMatchesRebuild holds each type's live program, the
// only copy of its queries' predicates, to a reference the test owns: a
// fresh intern of the test's own canonical trees. Start interns a query's
// predicate into a cut of the live program (cut, expr.Program.Keep), and
// Stop, span expiry and governor shed cut it to the survivors. Over a
// seeded churn of those steps, REPLAY starts among them, with predicates
// that share subtrees, every step must leave each subscriber selecting,
// on a fixed set of events, exactly what it selects in the reference over
// the same live queries, in the same dispatch order with the same spans, on a
// program of the same size. And each replay scan, run on a cut of the
// program to its own query, must ship exactly the recorded events its
// query's tree selects.
func TestSeededInstallMatchesRebuild(t *testing.T) {
	atoms := append(decoyPreds(), predSpellings()[1:]...)
	base := time.Now().UnixNano()
	cities := []string{"sf", "nyc", "la", ""}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]*event.Event, 64)
		for i := range evs {
			evs[i] = bidEvent(uint64(i), rng.Int63n(6), cities[rng.Intn(len(cities))],
				float64(rng.Intn(200))/100-0.3, base+int64(rng.Intn(1000)))
		}
		rs, err := replay.Open(replay.Options{Catalog: testCatalog()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		sink := &collectSink{}
		a := newAgent(t, sink, func(c *Config) { c.FlushInterval, c.QueueSize, c.Record = time.Hour, 1<<16, rs })
		for _, ev := range evs {
			a.Log(ev) // no query yet: only the record keeps it
		}
		trees := make(map[uint64]expr.Node) // each query's canonical tree, nil for none
		var replaying []uint64
		now, next := base, uint64(1)
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // Start: one to three atoms, and-ed or or-ed
				var pred expr.Node
				if rng.Intn(8) != 0 {
					pred = atoms[rng.Intn(len(atoms))]
					for k := rng.Intn(3); k > 0; k-- {
						pred = expr.Binary{Op: []expr.Op{expr.OpAnd, expr.OpOr}[rng.Intn(2)], L: pred, R: atoms[rng.Intn(len(atoms))]}
					}
				}
				hq := transport.HostQuery{QueryID: next, EventType: "bid", Pred: pred, Columns: colSets[rng.Intn(len(colSets))]}
				if rng.Intn(3) == 0 {
					hq.StartNanos = now + rng.Int63n(500)
					hq.EndNanos = hq.StartNanos + 1 + rng.Int63n(1000)
				}
				if rng.Intn(6) == 0 {
					hq.ReplayNanos = int64(time.Hour)
					replaying = append(replaying, next)
				}
				trees[next] = canonOf(t, pred)
				next++
				if err := a.Start(hq); err != nil {
					t.Fatal(err)
				}
			case op < 8:
				if ids := a.ActiveQueries(); len(ids) > 0 {
					slices.Sort(ids) // map order: sorted, the seed picks the same query every run
					a.Stop(ids[rng.Intn(len(ids))])
				}
			case op < 9:
				now += rng.Int63n(300)
				a.PruneExpired(time.Unix(0, now))
			default: // what governTick's ActionShed does to the index
				// shed is the shipper's to read, which ships a replay
				// scan's batches: shed only a query that does not replay.
				a.mu.Lock()
				for _, aq := range a.queries {
					if !aq.shed && aq.replayNanos == 0 {
						aq.shed = true
						a.rebuildLocked()
						break
					}
				}
				a.mu.Unlock()
			}
			checkAgainstFresh(t, a, trees, evs, fmt.Sprintf("seed %d step %d", seed, step))
		}
		checkReplays(t, a, sink, trees, replaying, evs)
	}
}

// canonOf is pred checked against the bid schema and in canonical form,
// as Start interns it; nil stays nil.
func canonOf(t *testing.T, pred expr.Node) expr.Node {
	t.Helper()
	if pred == nil {
		return nil
	}
	checked, _, err := expr.Check(pred, expr.SchemaResolver{Schemas: []*event.Schema{bidSchema}})
	if err != nil {
		t.Fatal(err)
	}
	return expr.Canon(checked)
}

// checkAgainstFresh compares the agent's live bid index with one built
// over a fresh intern of trees, the test's own copies of the live, unshed
// queries' predicates, interned in dispatch order.
func checkAgainstFresh(t *testing.T, a *Agent, trees map[uint64]expr.Node, evs []*event.Event, at string) {
	t.Helper()
	a.mu.Lock()
	var subs []subscriber
	for _, aq := range a.queries {
		if !aq.shed {
			subs = append(subs, subscriber{ln: &aq.live, pred: -1, startNs: aq.startNs, endNs: aq.endNs})
		}
	}
	a.mu.Unlock()
	got := a.byType.Load().byName["bid"]
	if len(subs) == 0 {
		if got != nil {
			t.Fatalf("%s: no live query, but the snapshot indexes bid", at)
		}
		return
	}
	slices.SortFunc(subs, subscriberOrder)
	b := expr.NewProgramBuilder()
	for i := range subs {
		if tree := trees[subs[i].ln.aq.queryID]; tree != nil {
			id, err := b.Intern(tree)
			if err != nil {
				t.Fatal(err)
			}
			subs[i].pred = id
		}
	}
	want := buildTypeProgram(bidSchema, b.Build(), subs)
	if got == nil {
		t.Fatalf("%s: %d live queries, but the snapshot does not index bid", at, len(subs))
	}
	if g, w := got.numNodes(), want.numNodes(); g != w {
		t.Fatalf("%s: %d program nodes, a fresh intern has %d", at, g, w)
	}
	if got.minStart != want.minStart {
		t.Fatalf("%s: minStart %d, a fresh intern has %d", at, got.minStart, want.minStart)
	}
	if len(got.subs) != len(want.subs) {
		t.Fatalf("%s: %d subscribers, a fresh intern has %d", at, len(got.subs), len(want.subs))
	}
	for i, g := range got.subs {
		w := want.subs[i]
		if g.ln != w.ln || g.startNs != w.startNs || g.endNs != w.endNs || (g.pred < 0) != (w.pred < 0) {
			t.Fatalf("%s: subscriber %d is query %d %+v, a fresh intern has query %d %+v", at, i, g.ln.aq.queryID, g, w.ln.aq.queryID, w)
		}
	}
	gc, wc := got.newCtx(), want.newCtx()
	for _, ev := range evs {
		gc.Begin(expr.EventRow{Event: ev})
		wc.Begin(expr.EventRow{Event: ev})
		for i, g := range got.subs {
			w := want.subs[i]
			if gm, wm := g.pred < 0 || gc.Bool(g.pred), w.pred < 0 || wc.Bool(w.pred); gm != wm {
				t.Fatalf("%s: query %d selects event %d: %v, in a fresh intern %v", at, g.ln.aq.queryID, ev.RequestID, gm, wm)
			}
		}
	}
}

// checkReplays waits for the replay scan of every query in ids that is
// still installed to ship its done marker, then requires each scan that
// shipped one to have replayed exactly the events of evs, in record
// order, that fall before its query's start and that its tree selects.
func checkReplays(t *testing.T, a *Agent, sink *collectSink, trees map[uint64]expr.Node, ids []uint64, evs []*event.Event) {
	t.Helper()
	starts := make(map[uint64]int64)
	a.mu.Lock()
	for _, aq := range a.queries {
		starts[aq.queryID] = aq.startNs
	}
	a.mu.Unlock()
	done := func() map[uint64]bool {
		out := make(map[uint64]bool)
		for _, b := range sink.all() {
			if b.ReplayDone {
				out[b.QueryID] = true
			}
		}
		return out
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		d, waiting := done(), 0
		for _, id := range ids {
			if _, live := starts[id]; live && !d[id] {
				waiting++
			}
		}
		if waiting == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d installed replay queries never shipped their done marker", waiting)
		}
	}
	got := make(map[uint64][]uint64)
	for _, b := range sink.all() {
		if b.ReplayEpoch != 0 {
			for _, tu := range b.Tuples {
				got[b.QueryID] = append(got[b.QueryID], tu.RequestID)
			}
		}
	}
	checked := 0
	for id := range done() {
		start, ok := starts[id]
		if !ok {
			continue // stopped: its scan may have shipped a marker before the stop, with a start this test no longer reads
		}
		sel := func(*event.Event) bool { return true }
		if tree := trees[id]; tree != nil {
			ev, err := expr.Compile(tree)
			if err != nil {
				t.Fatal(err)
			}
			sel = func(e *event.Event) bool { return expr.Predicate(ev)(expr.EventRow{Event: e}) }
		}
		var want []uint64
		for _, ev := range evs {
			if ev.TimeNanos < start && sel(ev) {
				want = append(want, ev.RequestID)
			}
		}
		if !slices.Equal(got[id], want) {
			t.Errorf("query %d replayed request ids %v, want %v", id, got[id], want)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no replay scan was checked")
	}
}

func (tp *typeProgram) numNodes() int {
	if tp.prog == nil {
		return 0
	}
	return tp.prog.NumNodes()
}

// newCtx is an evaluation context for the program, an empty one's when
// there is none.
func (tp *typeProgram) newCtx() *expr.Ctx {
	if tp.prog == nil {
		return expr.NewProgramBuilder().Build().NewCtx()
	}
	return tp.prog.NewCtx()
}
