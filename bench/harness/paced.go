package harness

import (
	"runtime"
	"time"

	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// schedule is the open-loop generator's fixed timetable: burst b is due at
// origin + b×burstEvents×eventNanos, and event i is created (stamped) at
// its own slot origin + i×eventNanos whether or not the generator is late.
type schedule struct {
	origin     time.Time // monotonic reading of the origin
	originNs   int64     // the origin as unix nanoseconds
	eventNanos int64
}

func newSchedule(eventNanos int64) *schedule {
	s := &schedule{eventNanos: eventNanos}
	s.startAt(time.Now().UnixNano())
	return s
}

// startAt moves the timetable's origin to the wall-clock instant originNs.
func (s *schedule) startAt(originNs int64) {
	now := time.Now()
	s.origin = now.Add(time.Duration(originNs - now.UnixNano()))
	s.originNs = originNs
}

// now is the wall clock as unix nanoseconds, read off the monotonic clock.
func (s *schedule) now() int64 { return s.originNs + int64(time.Since(s.origin)) }

func (s *schedule) eventTs(i uint64) int64 { return s.originNs + int64(i)*s.eventNanos }

func (s *schedule) burstDue(b uint64) int64 {
	return s.originNs + int64(b)*burstEvents*s.eventNanos
}

// eventAt is the index of the first event stamped at or after ts.
func (s *schedule) eventAt(ts int64) uint64 {
	d := ts - s.originNs
	if d <= 0 {
		return 0
	}
	return uint64((d + s.eventNanos - 1) / s.eventNanos)
}

// dueOf is when the generator was due to issue the first event stamped at
// or after ts: the start of that event's burst.
func (s *schedule) dueOf(ts int64) int64 { return s.burstDue(s.eventAt(ts) / burstEvents) }

// await busy-waits until burst b is due and returns how late it starts and
// how much CPU the wait burned. A sleeping generator would let its core go
// idle, and the next burst would then pay for a wake-up of uncertain length
// and for cold caches; spinning keeps both out of the measurement at the
// price of a core, which is charged back through spunNs. The caller must
// have locked its goroutine to its thread for that figure to be its own.
func (s *schedule) await(b uint64) (lateNs, spunNs int64) {
	due := s.burstDue(b)
	c0 := threadCPUNanos()
	for s.now() < due {
	}
	return s.now() - due, threadCPUNanos() - c0
}

// sizeBursts converts a run length into warm-up and measured burst counts.
func sizeBursts(seconds float64, eventNanos int64) (warm, meas uint64) {
	meas = max(uint64(seconds*1e9/float64(eventNanos)/burstEvents), 4)
	warm = max(uint64(float64(meas)*warmupShare), 1)
	return warm, meas
}

// pacedAgent is one host.Agent fed by the generator. In a traced run it is
// also the agent's Sink, wrapping the real one (inner) with the host.queue
// / host.ship measurements.
type pacedAgent struct {
	agent *host.Agent
	sched *schedule
	// stamp fills dst with the agent's i'th event of the run.
	stamp func(dst *event.Event, i uint64)
	inner host.Sink
	tr    *Tracer

	measFrom int64 // first measured event's timestamp
	scratch  []event.Event

	// Traced run only. logStart and burstSpan are written by the generator
	// before the Log call that can hand the tuple to the shipper, and read
	// by the shipper in SendBatch.
	logStart   []int64 // per event: tracer clock at Log entry
	burstSpan  []int32
	logNs      []float64
	waitNs     []int64
	shipNs     []float64 // per batch: ns inside SendBatch ÷ tuples
	batchSizes []float64
	captured   []transport.TupleBatch
}

func newPacedAgent(sched *schedule, warm, meas uint64, inner host.Sink, tr *Tracer) *pacedAgent {
	p := &pacedAgent{sched: sched, inner: inner, tr: tr, scratch: make([]event.Event, burstEvents)}
	if tr != nil {
		p.logStart = make([]int64, (warm+meas)*burstEvents)
		p.burstSpan = make([]int32, warm+meas)
		p.logNs = make([]float64, 0, meas*burstEvents)
	}
	return p
}

// sink is what the agent is constructed with.
func (p *pacedAgent) sink() host.Sink {
	if p.tr != nil {
		return p
	}
	return p.inner
}

// generator is a paced workload's one load-generating goroutine: it waits
// for each burst's slot on the schedule, then logs the burst into every
// agent in turn.
type generator struct {
	sched  *schedule
	agents []*pacedAgent
	next   uint64 // next burst to issue
}

// sliceLen is how many of n equal steps (bursts, rounds) make one slice.
func sliceLen(n uint64) uint64 { return max(n/slicesPerRun, 1) }

// start begins the timetable at originNs, once the system stands: set-up
// is then not absorbed by the first burst's slack and shows in setup_s. The
// first warm bursts are warm-up.
func (g *generator) start(originNs int64, warm uint64) {
	g.sched.startAt(originNs)
	for _, p := range g.agents {
		p.measFrom = g.sched.eventTs(warm * burstEvents)
	}
}

// run issues bursts [next, next+n) on schedule; m, when non-nil, receives
// the slice marks and the call-time and lateness samples of each burst. The
// caller adds the closing mark once the section's outputs are drained.
func (g *generator) run(n uint64, m *measurement) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	begin, slice := g.next, sliceLen(n)
	perBurst := burstEvents * uint64(len(g.agents))
	for end := begin + n; g.next < end; g.next++ {
		b := g.next
		late, spun := g.sched.await(b)
		if m != nil {
			m.waitCPUNs += spun
			if (b-begin)%slice == 0 && (b-begin)/slice < slicesPerRun {
				m.markAt(g.sched.now(), (b-begin)*perBurst)
			}
			m.lateMs = append(m.lateMs, float64(max(late, 0))/1e6)
		}
		for _, p := range g.agents {
			inLog := p.burst(b, m != nil)
			if m != nil {
				m.callNs = append(m.callNs, float64(inLog)/burstEvents)
			}
		}
	}
}

// burst stamps and logs the agent's burst b and returns the time spent
// inside Log.
func (p *pacedAgent) burst(b uint64, measured bool) (inLog int64) {
	first := b * burstEvents
	for k := range p.scratch {
		p.stamp(&p.scratch[k], first+uint64(k))
	}
	if p.tr != nil {
		return p.tracedBurst(b, first, measured)
	}
	t0 := time.Now()
	for k := range p.scratch {
		p.agent.Log(&p.scratch[k])
	}
	return int64(time.Since(t0))
}

// tracedBurst times every Log call of a burst and records its spans.
func (p *pacedAgent) tracedBurst(b, first uint64, measured bool) (inLog int64) {
	start := p.tr.now()
	root := p.tr.begin("gen.burst", start, -1, b)
	p.burstSpan[b] = root
	for k := range p.scratch {
		t0 := p.tr.now()
		p.logStart[first+uint64(k)] = t0
		p.agent.Log(&p.scratch[k])
		d := p.tr.now() - t0
		inLog += d
		if measured {
			p.logNs = append(p.logNs, float64(d))
		}
	}
	end := p.tr.now()
	p.tr.add("host.log", start, end, root, b)
	p.tr.finish(root, end)
	return inLog
}

// maxCaptured bounds how many batches a traced sink keeps for the
// transport replays.
const maxCaptured = 256

// SendBatch is the traced sink: the real sink's call bracketed by the
// queue-wait (newest tuple's Log entry → here) and ship measurements.
func (p *pacedAgent) SendBatch(b transport.TupleBatch) error {
	entry := p.tr.now()
	err := p.inner.SendBatch(b)
	exit := p.tr.now()
	n := len(b.Tuples)
	if n == 0 || b.Tuples[n-1].TsNanos < p.measFrom {
		return err
	}
	i := p.sched.eventAt(b.Tuples[n-1].TsNanos)
	if i >= uint64(len(p.logStart)) {
		return err
	}
	logged := p.logStart[i]
	parent := p.burstSpan[i/burstEvents]
	p.tr.add("host.queue", logged, entry, parent, i/burstEvents)
	p.tr.add("host.ship", entry, exit, parent, i/burstEvents)
	p.waitNs = append(p.waitNs, max(entry-logged, 0))
	p.shipNs = append(p.shipNs, float64(exit-entry)/float64(n))
	p.batchSizes = append(p.batchSizes, float64(n))
	if len(p.captured) < maxCaptured {
		p.captured = append(p.captured, transport.CloneBatch(b))
	}
	return err
}

// hostLayers reports the host.* layer metrics over the given agents.
func hostLayers(agents []*pacedAgent, out map[string]Metric) {
	var st host.Stats
	var logNs, shipNs, sizes []float64
	var waitNs []int64
	for _, p := range agents {
		s := p.agent.Stats()
		st.Logged += s.Logged
		st.Matched += s.Matched
		st.Shipped += s.Shipped
		st.QueueDrops += s.QueueDrops
		logNs = append(logNs, p.logNs...)
		shipNs = append(shipNs, p.shipNs...)
		sizes = append(sizes, p.batchSizes...)
		waitNs = append(waitNs, p.waitNs...)
	}
	set := func(name string, v float64) { out[name] = Metric{v, out[name].Unit} }
	set("host.log.ns_per_event", median(logNs))
	set("host.log.tuples_per_event", float64(st.Shipped)/float64(st.Logged))
	set("host.log.matched_share", float64(st.Matched)/float64(st.Logged))
	set("host.queue.wait_ms_p50", median(nanosToMs(waitNs)))
	set("host.queue.drops", float64(st.QueueDrops))
	set("host.ship.ns_per_tuple", median(shipNs))
	set("host.ship.tuples_per_batch", mean(sizes))
}

// hostQueryFor turns query text into the query object the query server
// would push to a host (server.Submit's fan-out, for a single-type query):
// a span from just before the schedule's origin to the query's duration
// after it.
func hostQueryFor(text string, cat *event.Catalog, id uint64, originNs int64) (transport.HostQuery, error) {
	q, err := ql.Parse(text)
	if err != nil {
		return transport.HostQuery{}, err
	}
	plan, err := ql.Analyze(q, cat)
	if err != nil {
		return transport.HostQuery{}, err
	}
	typ := plan.TypeNames()[0]
	return transport.HostQuery{
		QueryID: id, EventType: typ,
		Pred: plan.HostPred[typ], Columns: plan.Columns[typ],
		SampleEvents: plan.SampleEvents,
		StartNanos:   originNs - int64(time.Second),
		EndNanos:     originNs + int64(plan.Span),
	}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
