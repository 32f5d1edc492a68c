package harness

import (
	"fmt"
	"time"

	"scrub/bench/gen"
	"scrub/internal/central"
	"scrub/internal/transport"
)

func init() {
	workloadDefs["central-mixed"] = func(seed int64) (*prepared, error) { return prepareCentral(seed, false) }
	workloadDefs["central-sharded"] = func(seed int64) (*prepared, error) { return prepareCentral(seed, true) }
}

func prepareCentral(seed int64, sharded bool) (*prepared, error) {
	in, err := gen.Central(seed)
	if err != nil {
		return nil, err
	}
	return &prepared{
		hash: in.Hash,
		build: func(seconds float64, tr *Tracer) (system, error) {
			return buildCentral(in, sharded, seconds, tr)
		},
	}, nil
}

const (
	// centralBase is the event-time origin of the central workloads: a
	// fixed instant on a window boundary, so a run's windows are the same
	// windows every time.
	centralBase = int64(1_700_000_000) * int64(time.Second)
	// centralLateness is the plans' event-time slack: one round, so a window
	// is released by the Tick after the round that follows it.
	centralLateness = time.Duration(gen.CentralRoundNanos)
)

// emission is one window a query emitted.
type emission struct {
	query  int
	end    int64 // window end, event time
	wall   int64 // nanoseconds since the system's origin
	tuples uint64
	count  uint64 // sum of the count(*) column, when the query has one
	rows   int
}

// emissionOf records window rw of query qi, emitted at wall; col is the
// query's count(*) column or -1. It runs under the executor's lock, so it
// only sums.
func emissionOf(qi, col int, rw transport.ResultWindow, wall int64) emission {
	e := emission{query: qi, end: rw.WindowEnd, wall: wall, tuples: rw.Stats.TuplesIn, rows: len(rw.Rows)}
	if col >= 0 {
		for _, row := range rw.Rows {
			n, _ := row[col].AsInt()
			e.count += uint64(n)
		}
	}
	return e
}

// timedCall is one traced HandleBatch (query ≥ 0) or Tick (query -1) and
// what it emitted.
type timedCall struct {
	query         int
	t0, t1        int64
	tuples        int
	windows, rows int
}

// centralSystem is a central executor — one Engine, or a ShardedEngine over
// the same input — with the six queries installed, fed closed-loop with the
// benchmark driving Tick from event time.
type centralSystem struct {
	in      *gen.CentralInput
	sharded bool
	eng     central.Executor
	origin  time.Time
	tr      *Tracer

	per                    uint64 // batches per round
	warmRounds, measRounds uint64
	next                   uint64  // next batch of the run to feed
	tickAt                 []int64 // per round of the run: wall at its Tick's entry

	// Everything below is touched by the feeding goroutine only: both
	// executors emit synchronously, inside HandleBatch, Tick or StopQuery.
	emits []emission
	calls []timedCall
}

func buildCentral(in *gen.CentralInput, sharded bool, seconds float64, tr *Tracer) (*centralSystem, error) {
	s := &centralSystem{in: in, sharded: sharded, tr: tr, per: uint64(in.BatchesPerRound())}
	s.measRounds = max(uint64(seconds*centralRoundsPerSecond), 4)
	s.warmRounds = max(uint64(float64(s.measRounds)*warmupShare), 6)
	// End the run one round short of a window boundary, whatever its
	// length: the live-heap reading taken there then always finds the open
	// window at its fullest, not wherever the round count happened to stop.
	perWindow := uint64(in.Plans[0].Window) / uint64(gen.CentralRoundNanos)
	for (s.warmRounds+s.measRounds)%perWindow != perWindow-1 {
		s.warmRounds++
	}
	s.tickAt = make([]int64, s.warmRounds+s.measRounds)
	if sharded {
		se, err := central.NewShardedEngine(centralShards)
		if err != nil {
			return nil, err
		}
		s.eng = se
	} else {
		s.eng = central.NewEngine()
	}
	s.origin = time.Now()
	for qi := range in.Queries {
		if err := s.eng.StartQuery(centralPlan(in, qi), s.emitFor(qi)); err != nil {
			return nil, fmt.Errorf("%s: %w", in.Queries[qi].Name, err)
		}
	}
	return s, nil
}

// centralPlan is the central query object for input query qi: what the
// query server assembles at submission, with the workload's lateness.
func centralPlan(in *gen.CentralInput, qi int) central.Plan {
	cp := central.FromPlan(in.Plans[qi], uint64(qi+1), 0, 0, gen.CentralHosts, gen.CentralHosts)
	cp.Text = in.Queries[qi].Text
	cp.Lateness = centralLateness
	return cp
}

func (s *centralSystem) wall() int64 { return int64(time.Since(s.origin)) }

// emitFor returns query qi's emit callback; the executors call it on the
// feeding goroutine.
func (s *centralSystem) emitFor(qi int) central.EmitFunc {
	col := s.in.Queries[qi].CountCol
	return func(rw transport.ResultWindow) {
		s.emits = append(s.emits, emissionOf(qi, col, rw, s.wall()))
	}
}

// feed applies batches [next, limit) in order and ticks the executor once
// per round with the event time the round just applied has reached; with a
// non-zero pace it starts a round no sooner than pace after the last. One
// goroutine feeds: both executors serialize HandleBatch under one lock, so
// a second feeder added no throughput (1.9 M tuples/s alone, 1.2–1.8 M with
// two) — only a lock hand-off whose regime differed from run to run.
func (s *centralSystem) feed(limit uint64, pace time.Duration, m *measurement) {
	first := s.next / s.per
	start := time.Now()
	slice := sliceLen(s.measRounds)
	scratch := make([]transport.Tuple, s.in.MaxBatchTuples())
	for ; s.next < limit; s.next++ {
		g := s.next
		b, round := s.in.Batch(g)
		tuples := s.in.StampInto(scratch, b, round, centralBase)
		total := b.MatchedTotal(round)
		batch := transport.TupleBatch{
			QueryID: uint64(b.Query + 1), HostID: s.in.Hosts[b.Host], TypeIdx: b.TypeIdx,
			Tuples: tuples, MatchedTotal: total, SampledTotal: total, EffRate: 1,
		}
		if pace > 0 && g%s.per == 0 {
			time.Sleep(time.Until(start.Add(time.Duration(round-first) * pace)))
		}
		t0 := s.wall()
		if r := round - first; m != nil && g%s.per == 0 && r%slice == 0 && r/slice < slicesPerRun {
			m.markAt(t0, s.in.TuplesThrough(round)-s.in.TuplesThrough(first))
		}
		emitted := len(s.emits)
		s.eng.HandleBatch(batch)
		t1 := s.wall()
		if m != nil && len(tuples) > 0 {
			m.callNs = append(m.callNs, float64(t1-t0)/float64(len(tuples)))
		}
		s.traceCall("central.apply", b.Query, t0, t1, len(tuples), emitted, g)
		if g%s.per == s.per-1 {
			// The round is applied: event time has reached its end.
			emitted = len(s.emits)
			s.tickAt[round] = t1
			s.eng.Tick(centralBase + int64(round+1)*gen.CentralRoundNanos)
			s.traceCall("central.tick", -1, t1, s.wall(), 0, emitted, round)
		}
	}
}

// traceCall records, in a traced run, a call into the executor and the
// windows (s.emits[emitted:]) it emitted.
func (s *centralSystem) traceCall(name string, query int, t0, t1 int64, tuples, emitted int, id uint64) {
	if s.tr == nil {
		return
	}
	// The system's origin and the tracer's epoch differ; spans use the
	// tracer's clock.
	off := int64(s.origin.Sub(s.tr.epoch))
	s.tr.add(name, t0+off, t1+off, -1, id)
	c := timedCall{query: query, t0: t0, t1: t1, tuples: tuples, windows: len(s.emits) - emitted}
	for _, e := range s.emits[emitted:] {
		c.rows += e.rows
	}
	s.calls = append(s.calls, c)
}

// warmup feeds the warm-up rounds on a timetable the executor keeps up with
// at half its speed, so that setup_s says how long construction and query
// installation took and not how fast the machine happened to be: fed
// closed-loop, the same warm-up took 0.8 to 1.5 s from one run to the next.
func (s *centralSystem) warmup() error {
	s.feed(s.warmRounds*s.per, time.Second/centralWarmRoundsPerSecond, nil)
	return nil
}

func (s *centralSystem) measure() (*measurement, error) {
	m := &measurement{callNs: make([]float64, 0, s.measRounds*s.per)}
	s.calls = s.calls[:0]
	m.sec = beginSection()
	s.feed((s.warmRounds+s.measRounds)*s.per, 0, m)
	m.sec.end()
	m.events = s.in.TuplesThrough(s.warmRounds+s.measRounds) - s.in.TuplesThrough(s.warmRounds)
	m.markAt(s.wall(), m.events)
	// A window [_, end) becomes releasable when event time reaches end +
	// lateness: the generator says so with the Tick that follows the round
	// ending there, before any tuple stamped that late exists. Its emit lag
	// runs from that Tick's issue.
	for _, e := range s.emits {
		round := uint64((e.end+int64(centralLateness)-centralBase)/gen.CentralRoundNanos) - 1
		if round < s.warmRounds || round >= s.warmRounds+s.measRounds {
			continue
		}
		m.lags = append(m.lags, lagSample{at: e.wall, ms: float64(e.wall-s.tickAt[round]) / 1e6})
	}
	return m, nil
}

// check stops every query (flushing the open windows through the emit
// callbacks) and verifies conservation: per query, the tuples and the
// count(*) rows over all emitted windows equal the generator's reference,
// and nothing was dropped.
func (s *centralSystem) check() (attempted, failed uint64, problems []string) {
	rounds := s.next / s.per
	refTuples, refCounts := s.in.Reference(rounds)
	finals := make([]transport.QueryStats, len(s.in.Queries))
	for qi := range s.in.Queries {
		finals[qi], _ = s.eng.StopQuery(uint64(qi + 1))
	}
	gotTuples := make([]uint64, len(s.in.Queries))
	gotCounts := make([]uint64, len(s.in.Queries))
	gotRows := make([]uint64, len(s.in.Queries))
	for _, e := range s.emits {
		gotTuples[e.query] += e.tuples
		gotCounts[e.query] += e.count
		gotRows[e.query] += uint64(e.rows)
	}
	for qi, q := range s.in.Queries {
		attempted += refTuples[qi]
		st := finals[qi]
		failed += st.LateDrops + st.HostDrops
		if gotTuples[qi] != refTuples[qi] {
			problems = append(problems, fmt.Sprintf("%s: emitted windows hold %d tuples, %d were fed", q.Name, gotTuples[qi], refTuples[qi]))
			failed += absDiff(gotTuples[qi], refTuples[qi])
		}
		if q.CountCol >= 0 && gotCounts[qi] != refCounts[qi] {
			problems = append(problems, fmt.Sprintf("%s: count(*) over emitted windows is %d, reference %d", q.Name, gotCounts[qi], refCounts[qi]))
		}
		if q.Name == "raw" && gotRows[qi] != refTuples[qi] {
			problems = append(problems, fmt.Sprintf("raw: %d rows emitted for %d tuples fed", gotRows[qi], refTuples[qi]))
		}
		if st.LateDrops != 0 || st.HostDrops != 0 || st.DegradedWindows != 0 {
			problems = append(problems, fmt.Sprintf("%s: final stats report drops or degraded windows: %+v", q.Name, st))
		}
	}
	return attempted, failed, problems
}

func (s *centralSystem) close() {}

// layers derives the in-run layer metrics from the traced calls, then runs
// the standalone replays that belong to the workload: each query alone
// through an Engine for central-mixed, the driven-engine loop for
// central-sharded.
func (s *centralSystem) layers(m *measurement, tr *Tracer, out map[string]Metric) error {
	set := func(name string, v float64) { out[name] = Metric{v, out[name].Unit} }
	// A closing call's cost over a plain call of its kind is the close.
	plain := map[int][]float64{}
	var perTuple, ticks []float64
	windows, rows := 0, 0
	for _, c := range s.calls {
		d := float64(c.t1 - c.t0)
		if c.query < 0 {
			ticks = append(ticks, d/1e6)
		} else if c.tuples > 0 {
			perTuple = append(perTuple, d/float64(c.tuples))
		}
		if c.windows == 0 {
			plain[c.query] = append(plain[c.query], d)
		}
		windows += c.windows
		rows += c.rows
	}
	var closeMs []float64
	for _, c := range s.calls {
		if c.windows > 0 {
			extra := float64(c.t1-c.t0) - median(plain[c.query])
			closeMs = append(closeMs, max(extra, 0)/1e6/float64(c.windows))
		}
	}
	if windows > 0 {
		set("central.close.ms_p50", quantile(closeMs, 0.5))
		set("central.close.ms_p95", quantile(closeMs, 0.95))
		set("central.close.windows", float64(windows))
		set("central.close.rows_per_window", float64(rows)/float64(windows))
	}
	if s.sharded {
		set("sharded.handle.ns_per_tuple", median(perTuple))
		set("sharded.tick.ms_p50", median(ticks))
		return replayDriven(s.in, tr, out)
	}
	set("central.apply.ns_per_tuple", median(perTuple))
	return replayApplyAlone(s.in, tr, out)
}

// replayRounds is how many rounds the standalone central replays feed.
const replayRounds = gen.CentralCycleRounds

// replayApplyAlone runs each query alone through a fresh Engine over the
// same batches and reports its apply cost per tuple.
func replayApplyAlone(in *gen.CentralInput, tr *Tracer, out map[string]Metric) error {
	scratch := make([]transport.Tuple, in.MaxBatchTuples())
	per := uint64(in.BatchesPerRound())
	for qi, q := range in.Queries {
		eng := central.NewEngine()
		if err := eng.StartQuery(centralPlan(in, qi), func(transport.ResultWindow) {}); err != nil {
			return err
		}
		var perTuple []float64
		start := tr.now()
		for g := uint64(0); g < replayRounds*per; g++ {
			b, round := in.Batch(g)
			if b.Query != qi || len(b.Tuples) == 0 {
				continue
			}
			tuples := in.StampInto(scratch, b, round, centralBase)
			t0 := tr.now()
			eng.HandleBatch(transport.TupleBatch{
				QueryID: uint64(qi + 1), HostID: in.Hosts[b.Host], TypeIdx: b.TypeIdx, Tuples: tuples,
			})
			perTuple = append(perTuple, float64(tr.now()-t0)/float64(len(tuples)))
		}
		tr.add("central.apply."+q.Name, start, tr.now(), -1, uint64(qi))
		eng.StopQuery(uint64(qi + 1))
		out["central.apply."+q.Name+".ns_per_tuple"] = Metric{median(perTuple), "ns"}
	}
	return nil
}

// replayDriven drives centralShards engines through the exported driven
// surface — the calls ShardedEngine makes in-process and the coordinator
// makes by RPC: apply per shard, then at every window boundary collect,
// decode, merge and render each query's window.
func replayDriven(in *gen.CentralInput, tr *Tracer, out map[string]Metric) error {
	engines := make([]*central.Engine, centralShards)
	runtimes := make([]*central.QueryRuntime, len(in.Queries))
	for i := range engines {
		engines[i] = central.NewEngine()
	}
	for qi := range in.Queries {
		cp := centralPlan(in, qi)
		qr, err := central.CompileQuery(cp)
		if err != nil {
			return err
		}
		runtimes[qi] = qr
		for _, eng := range engines {
			if err := eng.StartDriven(cp); err != nil {
				return err
			}
		}
	}
	scratch := make([]transport.Tuple, in.MaxBatchTuples())
	sub := make([][]transport.Tuple, centralShards)
	per := uint64(in.BatchesPerRound())
	roundsPerWindow := uint64(in.Plans[0].Window) / uint64(gen.CentralRoundNanos)
	var applyNs, collectUs, decodeUs, mergeUs, renderUs, partialBytes []float64
	us := func(d int64) float64 { return float64(d) / 1e3 }
	for g := uint64(0); g < replayRounds*per; g++ {
		b, round := in.Batch(g)
		tuples := in.StampInto(scratch, b, round, centralBase)
		for i := range sub {
			sub[i] = sub[i][:0]
		}
		for _, t := range tuples {
			i := t.RequestID % centralShards
			sub[i] = append(sub[i], t)
		}
		for i, part := range sub {
			if len(part) == 0 {
				continue
			}
			t0 := tr.now()
			_, ok := engines[i].ApplyDriven(transport.TupleBatch{
				QueryID: uint64(b.Query + 1), HostID: in.Hosts[b.Host], TypeIdx: b.TypeIdx, Tuples: part,
			})
			t1 := tr.now()
			if !ok {
				return fmt.Errorf("driven replay: shard %d does not know query %d", i, b.Query+1)
			}
			applyNs = append(applyNs, float64(t1-t0)/float64(len(part)))
		}
		if g%per != per-1 || (round+1)%roundsPerWindow != 0 {
			continue
		}
		// The round just applied ends a window: close it everywhere.
		bound := centralBase + int64(round+1)*gen.CentralRoundNanos
		for qi, qr := range runtimes {
			id := uint64(qi + 1)
			t0 := tr.now()
			var parts []central.EncodedPartial
			for _, eng := range engines {
				ps, _, _, ok := eng.CollectDriven(id, bound)
				if !ok {
					return fmt.Errorf("driven replay: collect: unknown query %d", id)
				}
				parts = append(parts, ps...)
			}
			t1 := tr.now()
			var merged *central.PartialWindow
			var size int
			var decode, merge int64
			for _, p := range parts {
				size += len(p.Data)
				d0 := tr.now()
				pw, err := qr.DecodePartial(p.Data)
				d1 := tr.now()
				if err != nil {
					return err
				}
				decode += d1 - d0
				if merged == nil {
					merged = pw
					continue
				}
				qr.Merge(merged, pw)
				merge += tr.now() - d1
			}
			if merged == nil {
				continue
			}
			t2 := tr.now()
			qr.Render(bound-int64(in.Plans[qi].Window), merged, nil)
			t3 := tr.now()
			root := tr.begin("central.driven.window", t0, -1, uint64(bound))
			tr.add("central.driven.collect", t0, t1, root, uint64(qi))
			tr.add("central.driven.decode+merge", t1, t2, root, uint64(qi))
			tr.add("central.driven.render", t2, t3, root, uint64(qi))
			tr.finish(root, t3)
			collectUs = append(collectUs, us(t1-t0))
			decodeUs = append(decodeUs, us(decode))
			mergeUs = append(mergeUs, us(merge))
			renderUs = append(renderUs, us(t3-t2))
			partialBytes = append(partialBytes, float64(size))
		}
	}
	out["central.driven.apply.ns_per_tuple"] = Metric{median(applyNs), "ns"}
	out["central.driven.collect.us_per_window"] = Metric{median(collectUs), "us"}
	out["central.driven.partial_bytes_per_window"] = Metric{median(partialBytes), "B"}
	out["central.driven.decode.us_per_window"] = Metric{median(decodeUs), "us"}
	out["central.driven.merge.us_per_window"] = Metric{median(mergeUs), "us"}
	out["central.driven.render.us_per_window"] = Metric{median(renderUs), "us"}
	return nil
}
