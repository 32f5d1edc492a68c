package harness

import (
	"fmt"

	"scrub/bench/gen"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/host"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// LayerMetrics lists every per-layer metric, layer = repo package. A traced
// run reports all of them; a metric whose layer is not on the workload's
// path reads 0. bench/README.md says which end-to-end metric each should
// move, and on which workload.
var LayerMetrics = []struct{ Name, Unit string }{
	{"host.log.ns_per_event", "ns"},
	{"host.log.tuples_per_event", "count"},
	{"host.log.matched_share", "ratio"},
	{"host.queue.wait_ms_p50", "ms"},
	{"host.queue.drops", "count"},
	{"host.ship.ns_per_tuple", "ns"},
	{"host.ship.tuples_per_batch", "count"},
	{"expr.program.ns_per_event", "ns"},
	{"expr.closure.ns_per_event", "ns"},
	{"expr.program.nodes", "count"},
	{"transport.encode.ns_per_tuple", "ns"},
	{"transport.decode.ns_per_tuple", "ns"},
	{"transport.bytes_per_tuple", "B"},
	{"transport.send.ns_per_tuple", "ns"},
	{"central.apply.ns_per_tuple", "ns"},
	{"central.apply.groupby-hi.ns_per_tuple", "ns"},
	{"central.apply.groupby-lo.ns_per_tuple", "ns"},
	{"central.apply.topk.ns_per_tuple", "ns"},
	{"central.apply.distinct.ns_per_tuple", "ns"},
	{"central.apply.join.ns_per_tuple", "ns"},
	{"central.apply.raw.ns_per_tuple", "ns"},
	{"central.close.ms_p50", "ms"},
	{"central.close.ms_p95", "ms"},
	{"central.close.windows", "count"},
	{"central.close.rows_per_window", "count"},
	{"central.driven.apply.ns_per_tuple", "ns"},
	{"central.driven.collect.us_per_window", "us"},
	{"central.driven.partial_bytes_per_window", "B"},
	{"central.driven.decode.us_per_window", "us"},
	{"central.driven.merge.us_per_window", "us"},
	{"central.driven.render.us_per_window", "us"},
	{"sharded.handle.ns_per_tuple", "ns"},
	{"sharded.tick.ms_p50", "ms"},
	{"coord.route.ns_per_tuple", "ns"},
	{"coord.manifest.rtt_us_p50", "us"},
	{"coord.tick.ms_p50", "ms"},
	{"coord.shard.skew", "ratio"},
	{"coord.shard.lag_ms_max", "ms"},
	{"rt.alloc_b_per_event", "B"},
	{"rt.allocs_per_event", "count"},
	{"rt.gc_cycles", "count"},
	{"rt.gc_pause_ms_total", "ms"},
	{"rt.rss_peak_mb", "MB"},
	{"gen.late_ms_p95", "ms"},
	{"trace.overhead_pct", "%"},
	// The timing of the traced run's untraced reference section: as its
	// quiet slices give it, and over the section in one piece.
	{"run.events_per_s", "1/s"},
	{"run.cpu_ns_per_event", "ns"},
	{"run.call_ns_per_event", "ns"},
	{"run.emit_lag_p50_ms", "ms"},
	{"run.emit_lag_p95_ms", "ms"},
	{"run.whole.events_per_s", "1/s"},
	{"run.whole.cpu_ns_per_event", "ns"},
	{"run.whole.call_ns_per_event", "ns"},
	{"run.whole.emit_lag_p50_ms", "ms"},
	{"run.whole.emit_lag_p95_ms", "ms"},
}

// replayPasses is how many times a standalone replay walks its input; the
// reported figure is the median pass. exprReplayEvents is how much of the
// host pool the predicate replay walks.
const (
	replayPasses     = 5
	exprReplayEvents = 1 << 13
)

// replayExpr builds the workload's predicates standalone — once as the
// shared expr.Program the agent interns them into, once as one compiled
// closure per query — and runs both over the same events the agent saw.
func replayExpr(queries []gen.HostQuery, in *gen.HostInput, tr *Tracer, out map[string]Metric) error {
	cat := gen.Catalog()
	res := expr.SchemaResolver{Schemas: []*event.Schema{gen.BidSchema}}
	builder := expr.NewProgramBuilder()
	var ids []int32
	var closures []func(expr.Row) bool
	for _, q := range queries {
		parsed, err := ql.Parse(q.Text)
		if err != nil {
			return err
		}
		plan, err := ql.Analyze(parsed, cat)
		if err != nil {
			return err
		}
		pred := plan.HostPred["bid"]
		if pred == nil {
			continue
		}
		checked, _, err := expr.Check(pred, res)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		canon := expr.Canon(checked)
		id, err := builder.Intern(canon)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		ids = append(ids, id)
		ev, err := expr.Compile(canon)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		closures = append(closures, expr.Predicate(ev))
	}
	prog := builder.Build()
	ctx := prog.NewCtx()
	events := in.Events[:exprReplayEvents]
	var progNs, closNs []float64
	matched := 0
	for pass := 0; pass < replayPasses; pass++ {
		start := tr.now()
		for i := range events {
			ctx.Begin(expr.EventRow{Event: &events[i]})
			for _, id := range ids {
				if ctx.Bool(id) {
					matched++
				}
			}
			ctx.Finish()
		}
		mid := tr.now()
		for i := range events {
			row := expr.EventRow{Event: &events[i]}
			for _, c := range closures {
				if c(row) {
					matched--
				}
			}
		}
		end := tr.now()
		tr.add("expr.program", start, mid, -1, uint64(pass))
		tr.add("expr.closure", mid, end, -1, uint64(pass))
		progNs = append(progNs, float64(mid-start)/float64(len(events)))
		closNs = append(closNs, float64(end-mid)/float64(len(events)))
	}
	if matched != 0 {
		return fmt.Errorf("expr replay: shared program and closures disagree by %d matches", matched)
	}
	out["expr.program.ns_per_event"] = Metric{median(progNs), "ns"}
	out["expr.closure.ns_per_event"] = Metric{median(closNs), "ns"}
	out["expr.program.nodes"] = Metric{float64(prog.NumNodes()), "count"}
	return nil
}

// replayTransport runs the codec and a loopback NetSink over batches
// captured from the traced section.
func replayTransport(batches []transport.TupleBatch, tr *Tracer, out map[string]Metric) error {
	if len(batches) == 0 {
		return nil
	}
	var tuples, bytes int
	encoded := make([][]byte, len(batches))
	for i, b := range batches {
		enc, err := transport.AppendEncode(nil, b)
		if err != nil {
			return err
		}
		encoded[i] = enc
		tuples += len(b.Tuples)
		bytes += len(enc)
	}
	if tuples == 0 {
		return nil
	}

	// A drain on loopback stands in for ScrubCentral's data listener.
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	sink := host.NewNetSink(l.Addr(), "bench-replay")
	defer func() {
		sink.Close()
		l.Close()
		<-drained
	}()

	var encNs, decNs, sendNs []float64
	var scratch []byte
	for pass := 0; pass < replayPasses; pass++ {
		t0 := tr.now()
		for _, b := range batches {
			enc, err := transport.AppendEncode(scratch[:0], b)
			if err != nil {
				return err
			}
			scratch = enc
		}
		t1 := tr.now()
		for _, enc := range encoded {
			if _, err := transport.Decode(enc); err != nil {
				return err
			}
		}
		t2 := tr.now()
		for _, b := range batches {
			if err := sink.SendBatch(b); err != nil {
				return err
			}
		}
		t3 := tr.now()
		tr.add("transport.encode", t0, t1, -1, uint64(pass))
		tr.add("transport.decode", t1, t2, -1, uint64(pass))
		tr.add("transport.send", t2, t3, -1, uint64(pass))
		encNs = append(encNs, float64(t1-t0)/float64(tuples))
		decNs = append(decNs, float64(t2-t1)/float64(tuples))
		sendNs = append(sendNs, float64(t3-t2)/float64(tuples))
	}
	out["transport.encode.ns_per_tuple"] = Metric{median(encNs), "ns"}
	out["transport.decode.ns_per_tuple"] = Metric{median(decNs), "ns"}
	out["transport.send.ns_per_tuple"] = Metric{median(sendNs), "ns"}
	out["transport.bytes_per_tuple"] = Metric{float64(bytes) / float64(tuples), "B"}
	return nil
}
