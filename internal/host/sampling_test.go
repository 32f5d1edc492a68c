package host

import (
	"maps"
	"math"
	"testing"
	"time"

	"scrub/internal/sampling"
	"scrub/internal/transport"
)

// keptIDs logs bid events with request ids from..to−1 through a, flushes,
// and returns the request ids of the tuples it shipped with rate rate.
func keptIDs(a *Agent, sink *collectSink, from, to uint64, rate float64) map[uint64]bool {
	now := time.Now().UnixNano()
	for id := from; id < to; id++ {
		a.Log(bidEvent(id, 1, "sf", 1, now))
	}
	a.Flush()
	kept := make(map[uint64]bool)
	for _, b := range sink.all() {
		for _, tp := range b.Tuples {
			if b.EffRate == rate && tp.RequestID >= from && tp.RequestID < to {
				kept[tp.RequestID] = true
			}
		}
	}
	return kept
}

// inBand reports whether k of n Bernoulli(q) draws is within five
// standard deviations of n·q.
func inBand(k, n int, q float64) bool {
	return math.Abs(float64(k)-float64(n)*q) <= 5*math.Sqrt(float64(n)*q*(1-q))
}

// TestRequestKeyedSampleIsSharedByHosts: a query sampled by request keeps
// the same requests on every host, so a join's two sides — logged on one
// host or on two — are kept or dropped together.
func TestRequestKeyedSampleIsSharedByHosts(t *testing.T) {
	const n, q = 4000, 0.25
	hq := transport.HostQuery{QueryID: 9, EventType: "bid", SampleEvents: q, SampleByRequest: true}
	var kept []map[uint64]bool
	for _, host := range []string{"bid-sj-1", "ad-ny-7"} {
		sink := &collectSink{}
		a := newAgent(t, sink, func(c *Config) { c.HostID = host })
		if err := a.Start(hq); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, keptIDs(a, sink, 0, n, q))
	}
	if !maps.Equal(kept[0], kept[1]) {
		t.Errorf("two hosts kept %d and %d requests, not the same ones", len(kept[0]), len(kept[1]))
	}
	if !inBand(len(kept[0]), n, q) {
		t.Errorf("kept %d of %d requests at rate %g", len(kept[0]), n, q)
	}
}

// TestRequestKeptAtAStepIsKeptAtTheStepBelow: the governor's halved rate
// keeps a subset of the requests the rate before it kept, which is what
// lets central weigh a joined pair by its heavier tuple alone.
func TestRequestKeptAtAStepIsKeptAtTheStepBelow(t *testing.T) {
	const n = 4000
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) { c.FlushInterval = time.Hour })
	if err := a.Start(transport.HostQuery{QueryID: 3, EventType: "bid", SampleEvents: 0.5, SampleByRequest: true}); err != nil {
		t.Fatal(err)
	}
	// The same request ids are logged again after the step; the batches'
	// rates tell the two runs apart.
	before := keptIDs(a, sink, 0, n, 0.5)
	downsample(t, a, 3)
	after := keptIDs(a, sink, 0, n, 0.25)
	if !inBand(len(before), n, 0.5) || !inBand(len(after), n, 0.25) {
		t.Fatalf("kept %d at step 0 and %d at step 1 of %d requests", len(before), len(after), n)
	}
	for id := range after {
		if !before[id] {
			t.Fatalf("request %d kept at step 1 but not at step 0", id)
		}
	}
}

// TestCountKeyedSampleIsPerHost: a single-type query keys its sample on
// each host's own count of matched events under a seed tied to the host,
// so two hosts logging the same stream keep different events, each about
// q of them.
func TestCountKeyedSampleIsPerHost(t *testing.T) {
	const n, q = 4000, 0.25
	var kept []map[uint64]bool
	for _, host := range []string{"bid-sj-1", "bid-sj-2"} {
		sink := &collectSink{}
		a := newAgent(t, sink, func(c *Config) { c.HostID = host })
		if err := a.Start(transport.HostQuery{QueryID: 9, EventType: "bid", SampleEvents: q}); err != nil {
			t.Fatal(err)
		}
		k := keptIDs(a, sink, 0, n, q)
		if !inBand(len(k), n, q) {
			t.Errorf("%s kept %d of %d events at rate %g", host, len(k), n, q)
		}
		kept = append(kept, k)
	}
	both := 0
	for id := range kept[0] {
		if kept[1][id] {
			both++
		}
	}
	// Independent samples share about q² of the events.
	if !inBand(both, n, q*q) {
		t.Errorf("the hosts kept %d events in common, want about %g", both, n*q*q)
	}
}

// TestUnusableSampleRateKeepsEverything: a rate outside (0, 1], NaN
// included, runs the query unsampled, at keepAll, rather than at a
// threshold no rate names.
func TestUnusableSampleRateKeepsEverything(t *testing.T) {
	if keepAll != sampling.Threshold(1) {
		t.Fatalf("keepAll = %d, want sampling.Threshold(1) = %d", keepAll, sampling.Threshold(1))
	}
	for _, rate := range []float64{math.NaN(), 0, 1.5} {
		sink := &collectSink{}
		a := newAgent(t, sink)
		if err := a.Start(transport.HostQuery{QueryID: 1, EventType: "bid", SampleEvents: rate}); err != nil {
			t.Fatal(err)
		}
		if kept := keptIDs(a, sink, 0, 100, 1); len(kept) != 100 {
			t.Errorf("rate %v: kept %d of 100 events at rate 1", rate, len(kept))
		}
	}
}
