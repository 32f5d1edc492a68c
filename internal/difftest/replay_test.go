package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/ql"
	"scrub/internal/replay"
	"scrub/internal/transport"
)

// The replay-equivalence contract: a query submitted AFTER a burst, with
// a REPLAY span covering it, must produce bit-identical results to the
// same query submitted BEFORE the burst — same windows, same rows, same
// accounting. The whole pipeline runs for real in both arms: host.Agent
// (recording in the replay arm), chunked shipping, central.Engine.

const replayEquivSeed = 7 // pinned: regenerating the burst is deterministic

var replayBidSchema = event.MustSchema("bid",
	event.FieldDef{Name: "user_id", Kind: event.KindInt},
	event.FieldDef{Name: "city", Kind: event.KindString},
	event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
)

func replayCatalog() *event.Catalog {
	c := event.NewCatalog()
	c.MustRegister(replayBidSchema)
	return c
}

// replayBurst generates the pinned event burst: ~30s of bids starting at
// base, in strictly increasing time order (the record stream preserves
// append order, so both arms see one canonical sequence).
func replayBurst(base int64) []*event.Event {
	rng := rand.New(rand.NewSource(replayEquivSeed))
	cities := []string{"sf", "la", "ny"}
	out := make([]*event.Event, 0, 400)
	ts := base
	for i := 0; i < 400; i++ {
		ts += int64(rng.Intn(150)+1) * int64(time.Millisecond)
		out = append(out, event.NewBuilder(replayBidSchema).
			SetRequestID(uint64(i+1)).
			SetTimeNanos(ts).
			Int("user_id", int64(rng.Intn(5))).
			Str("city", cities[rng.Intn(len(cities))]).
			Float("bid_price", rng.Float64()*2).
			MustBuild())
	}
	return out
}

// replaySink gathers shipped batches in arrival order. The replay arm's
// history ships from the agent's own goroutine, outside any Flush, so it
// needs the lock capture does without.
type replaySink struct {
	mu      sync.Mutex
	batches []transport.TupleBatch
}

func (s *replaySink) SendBatch(b transport.TupleBatch) error {
	cp := transport.CloneBatch(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = append(s.batches, cp)
	return nil
}

func (s *replaySink) all() []transport.TupleBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]transport.TupleBatch, len(s.batches))
	copy(out, s.batches)
	return out
}

func (s *replaySink) waitDone(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, b := range s.all() {
			if b.ReplayDone {
				return true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// runReplayArm executes one arm of the experiment end to end and returns
// the emitted windows plus the final query stats.
//
// before=true submits the query first and logs the burst live; before=
// false records the burst with no query active, then submits the query
// with a REPLAY span covering it.
func runReplayArm(t *testing.T, queryText string, events []*event.Event, base int64, before bool) ([]transport.ResultWindow, transport.QueryStats) {
	t.Helper()
	cat := replayCatalog()
	q, err := ql.Parse(queryText)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ql.Analyze(q, cat)
	if err != nil {
		t.Fatal(err)
	}

	// The live arm starts at the burst; the replay arm starts 40s later
	// and replays the missed history. Either way the data partition the
	// query accepts is [base, end).
	start := base
	var replaySpan time.Duration
	if !before {
		replaySpan = 40 * time.Second
		start = base + int64(replaySpan)
	}
	end := start + int64(10*time.Minute)

	var rs *replay.Store
	if !before {
		rs, err = replay.Open(replay.Options{Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
	}
	sink := &replaySink{}
	acfg := agentConfig("h1", cat, sink)
	acfg.Record = rs
	agent, err := host.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	hq := plan.HostQueries(1, start, end)[0]
	hq.ReplayNanos = int64(replaySpan)

	if before {
		if err := agent.Start(hq); err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			agent.Log(ev)
		}
		agent.Flush()
	} else {
		for _, ev := range events {
			agent.Log(ev) // recorded only: no query is listening
		}
		if err := agent.Start(hq); err != nil {
			t.Fatal(err)
		}
		if !sink.waitDone(5 * time.Second) {
			t.Fatal("replay arm: done marker never shipped")
		}
	}

	cp := central.FromPlan(plan, 1, start, end, 1, 1)
	cp.Replay = replaySpan
	cp.Text = queryText
	// Every executor arm takes the shipped batches, the replay arm's
	// included, where the hold settles across shards via the manifests'
	// ReplayDone markers. Arms holds them to the engine with the sweep's
	// 1e-9 float tolerance — shard merges re-associate float additions —
	// and the two replay arms compare the engine's windows bit for bit.
	batches := sink.all()
	var sched Schedule
	for i := range batches {
		sched.Steps = append(sched.Steps, Step{Batch: &batches[i]})
	}
	arms, err := Arms(cp, replayCatalog, sched, 2)
	if err != nil {
		t.Fatalf("arms (before=%v): %v", before, err)
	}
	return arms[0].Windows, arms[0].Stats
}

// compareReplayWindows demands bit-identical results across the two
// arms on everything deterministic: spans, columns, rows, approximation
// flags, error bounds, and window accounting. Stream snapshots are
// excluded — they carry measured CPU/byte costs that legitimately differ
// between runs.
func compareReplayWindows(live, replayed []transport.ResultWindow) error {
	if len(live) != len(replayed) {
		return fmt.Errorf("window count: live %d vs replayed %d", len(live), len(replayed))
	}
	for i := range live {
		a, b := live[i], replayed[i]
		if a.WindowStart != b.WindowStart || a.WindowEnd != b.WindowEnd {
			return fmt.Errorf("window %d span: [%d,%d) vs [%d,%d)", i, a.WindowStart, a.WindowEnd, b.WindowStart, b.WindowEnd)
		}
		if !reflect.DeepEqual(a.Columns, b.Columns) {
			return fmt.Errorf("window %d columns: %v vs %v", i, a.Columns, b.Columns)
		}
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			return fmt.Errorf("window %d [%d,%d) rows differ:\n  live:     %v\n  replayed: %v",
				i, a.WindowStart, a.WindowEnd, a.Rows, b.Rows)
		}
		if a.Approx != b.Approx {
			return fmt.Errorf("window %d approx: %v vs %v", i, a.Approx, b.Approx)
		}
		if !reflect.DeepEqual(a.ErrBounds, b.ErrBounds) {
			return fmt.Errorf("window %d bounds: %v vs %v", i, a.ErrBounds, b.ErrBounds)
		}
		if a.Stats != b.Stats {
			return fmt.Errorf("window %d stats: %+v vs %+v", i, a.Stats, b.Stats)
		}
	}
	return nil
}

func TestReplayEquivalence(t *testing.T) {
	base := int64(1_700_000_000_000_000_000)
	events := replayBurst(base)
	for _, queryText := range []string{
		`select bid.user_id, count(*) from bid where bid.bid_price > 0.5 group by bid.user_id window 5s`,
		`select count(*), sum(bid.bid_price), avg(bid.bid_price) from bid window 10s`,
		`select bid.user_id, bid.city from bid where bid.user_id = 3 window 10s`,
	} {
		liveWins, liveStats := runReplayArm(t, queryText, events, base, true)
		replayWins, replayStats := runReplayArm(t, queryText, events, base, false)
		if len(liveWins) == 0 {
			t.Fatalf("%s: live arm emitted no windows", queryText)
		}
		if err := compareReplayWindows(liveWins, replayWins); err != nil {
			t.Errorf("%s: %v", queryText, err)
		}
		if liveStats != replayStats {
			t.Errorf("%s: final stats: live %+v vs replayed %+v", queryText, liveStats, replayStats)
		}
	}
}
