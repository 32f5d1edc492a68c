package harness

import (
	"fmt"
	"time"

	"scrub/bench/gen"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/transport"
)

func init() {
	workloadDefs["host-fanout"] = func(seed int64) (*prepared, error) {
		return prepareHost(seed, gen.FanoutQueries(), true)
	}
	workloadDefs["host-firehose"] = func(seed int64) (*prepared, error) {
		return prepareHost(seed, []gen.HostQuery{gen.FirehoseQuery()}, false)
	}
}

func prepareHost(seed int64, queries []gen.HostQuery, exprLayer bool) (*prepared, error) {
	in := gen.Host(seed)
	return &prepared{
		hash: in.Hash,
		build: func(seconds float64, tr *Tracer) (system, error) {
			return buildHost(in, queries, exprLayer, seconds, tr)
		},
	}, nil
}

// queryAcct is what the sink learned about one query from its batches.
type queryAcct struct {
	shipped, matched, sampled, drops uint64
}

// hostSystem is one host.Agent with its queries installed, fed by one
// paced generator, shipping into an encode-and-discard sink: central is a
// remote facility, so its cost must not land on the application host under
// measurement, but the wire encoding is the host's to pay.
type hostSystem struct {
	in        *gen.HostInput
	queries   []gen.HostQuery
	exprLayer bool
	*pacedAgent
	gen                    generator
	warmBursts, measBursts uint64

	// Sink side: written by the shipper goroutine, read after Flush.
	enc  []byte
	lags []lagSample
	acct []queryAcct
}

func buildHost(in *gen.HostInput, queries []gen.HostQuery, exprLayer bool, seconds float64, tr *Tracer) (*hostSystem, error) {
	s := &hostSystem{in: in, queries: queries, exprLayer: exprLayer, acct: make([]queryAcct, len(queries))}
	s.warmBursts, s.measBursts = sizeBursts(seconds, hostEventNanos)
	// About one tuple ships per event on either workload, in full chunks.
	s.lags = make([]lagSample, 0, 2*s.measBursts*burstEvents/hostBatchSize)
	sched := newSchedule(hostEventNanos)
	s.pacedAgent = newPacedAgent(sched, s.warmBursts, s.measBursts, host.SinkFunc(s.sendBatch), tr)
	s.gen = generator{sched: sched, agents: []*pacedAgent{s.pacedAgent}}
	pool := in.Events
	s.stamp = func(dst *event.Event, i uint64) {
		gen.Stamp(dst, &pool[i%uint64(len(pool))], i, sched.eventTs(i))
	}
	agent, err := host.New(host.Config{
		HostID: "bench-app-1", Service: "BidServers", DC: "DC1",
		Catalog: gen.Catalog(), Sink: s.sink(),
		QueueSize: hostQueueSize, BatchSize: hostBatchSize, FlushInterval: hostFlushInterval,
	})
	if err != nil {
		return nil, err
	}
	s.agent = agent
	for i, q := range queries {
		hq, err := hostQueryFor(q.Text, agent.Catalog(), uint64(i+1), sched.originNs)
		if err == nil {
			err = agent.Start(hq)
		}
		if err != nil {
			agent.Close()
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
	}
	s.gen.start(time.Now().UnixNano(), s.warmBursts)
	return s, nil
}

func (s *hostSystem) warmup() error {
	s.gen.run(s.warmBursts, nil)
	return nil
}

func (s *hostSystem) measure() (*measurement, error) {
	m := &measurement{
		callNs: make([]float64, 0, s.measBursts),
		lateMs: make([]float64, 0, s.measBursts),
	}
	m.sec = beginSection()
	s.gen.run(s.measBursts, m)
	// An event is complete once its tuples reached the sink: drain the
	// partial chunks inside the measured section.
	s.agent.Flush()
	m.sec.end()
	m.events = s.measBursts * burstEvents
	m.markAt(s.sched.now(), m.events)
	m.lags, s.lags = s.lags, nil
	// The sink's encode buffer is the harness's, not the agent's state.
	s.enc = nil
	return m, nil
}

// sendBatch is the sink: serialize and discard, noting the batch's
// freshness — now minus when its newest tuple's Log call was due — and the
// query's cumulative accounting.
func (s *hostSystem) sendBatch(b transport.TupleBatch) error {
	if n := len(b.Tuples); n > 0 {
		if newest := b.Tuples[n-1].TsNanos; newest >= s.measFrom {
			now := s.sched.now()
			s.lags = append(s.lags, lagSample{at: now, ms: float64(now-s.sched.dueOf(newest)) / 1e6})
		}
	}
	out, err := transport.AppendEncode(s.enc[:0], b)
	s.enc = out[:0]
	if err != nil {
		return err
	}
	a := &s.acct[b.QueryID-1]
	a.shipped += uint64(len(b.Tuples))
	a.matched = max(a.matched, b.MatchedTotal)
	a.sampled = max(a.sampled, b.SampledTotal)
	a.drops = max(a.drops, b.QueueDrops)
	return nil
}

// check verifies, per query, logged = filtered + matched against the
// generator's reference predicate, and matched = sampled-out + shipped +
// counted drops; then the agent's totals against the per-query sums.
func (s *hostSystem) check() (attempted, failed uint64, problems []string) {
	s.agent.Flush()
	logged := s.gen.next * burstEvents
	ref := s.in.MatchCounts(s.queries, logged)
	var shipped, drops uint64
	for i, q := range s.queries {
		a := s.acct[i]
		attempted += ref[i]
		shipped += a.shipped
		drops += a.drops
		failed += a.drops
		if a.matched != ref[i] {
			problems = append(problems, fmt.Sprintf("%s: agent matched %d of %d logged, reference predicate matches %d", q.Name, a.matched, logged, ref[i]))
			failed += absDiff(a.matched, ref[i])
		}
		if a.sampled != a.matched {
			problems = append(problems, fmt.Sprintf("%s: unsampled query reports sampled %d != matched %d", q.Name, a.sampled, a.matched))
		}
		if a.shipped+a.drops != a.sampled {
			problems = append(problems, fmt.Sprintf("%s: shipped %d + drops %d != sampled %d", q.Name, a.shipped, a.drops, a.sampled))
			failed += absDiff(a.shipped+a.drops, a.sampled)
		}
	}
	st := s.agent.Stats()
	if st.Logged != logged || st.Shipped != shipped || st.QueueDrops != drops || st.SinkErrors != 0 {
		problems = append(problems, fmt.Sprintf("agent stats %+v disagree with logged %d shipped %d drops %d", st, logged, shipped, drops))
	}
	return attempted, failed, problems
}

func (s *hostSystem) layers(m *measurement, tr *Tracer, out map[string]Metric) error {
	hostLayers([]*pacedAgent{s.pacedAgent}, out)
	if s.exprLayer {
		if err := replayExpr(s.queries, s.in, tr, out); err != nil {
			return err
		}
	}
	return replayTransport(s.captured, tr, out)
}

func (s *hostSystem) close() { s.agent.Close() }
