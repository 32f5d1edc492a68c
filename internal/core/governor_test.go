package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/host"
	"scrub/internal/obs"
	"scrub/internal/transport"
)

// TestLocalGovernorDownsampleThenShed drives the whole budget loop end to
// end: a query with a 1-byte/sec BUDGET runs next to an identical
// unbudgeted sibling on two hosts. Every flush cycle ships at least a
// heartbeat (tens of bytes), so the budgeted query is over budget every
// enforcement interval and must walk the ladder deterministically — six
// rate halvings (1 → 1/64) and then a shed on the seventh interval —
// while the sibling never degrades. The whole cluster runs on a virtual
// clock advanced 100ms per flush so the ladder does not depend on
// scheduler timing. Every event is stamped at the query's start, so all of
// them land in one window, and the eight rounds stay well inside that
// window's 2s close hold: it closes only once the pump below has run.
func TestLocalGovernorDownsampleThenShed(t *testing.T) {
	base := time.Now()
	var step atomic.Int64 // tenths of a second of virtual time
	clock := func() time.Time { return base.Add(time.Duration(step.Load()) * 100 * time.Millisecond) }

	reg := obs.NewRegistry()
	lc, err := NewLocalCluster(LocalConfig{
		Catalog: testCatalog(),
		Hosts:   hostSpecs(2, "BidServers"),
		Agent: host.Config{
			FlushInterval: time.Hour, // only explicit FlushAgents cycles
			Clock:         clock,
			Metrics:       reg,
		},
		Central: central.Options{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// sum(bid_price) rather than count(*): the Eq. 2 bound is driven by
	// the variance of the sampled readings, and count's readings are all
	// exactly 1 (variance 0 → bound legitimately 0). Varied prices give
	// the estimator real spread, so budget downsampling visibly widens
	// the bound.
	budgeted, err := lc.Query(`select sum(bid.bid_price) from bid budget bytes 1 window 1s duration 1m`)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := lc.Query(`select count(*) from bid window 1s duration 1m`)
	if err != nil {
		t.Fatal(err)
	}

	// Eight enforcement intervals: 50 events per host per interval, then
	// one flush cycle per interval. Intervals 1–6 downsample, 7 sheds, 8
	// confirms the shed tracker stays quiet.
	const rounds, perRound = 8, 50
	logged := 0
	for round := 0; round < rounds; round++ {
		step.Add(1)
		for i, a := range lc.Agents() {
			for j := 0; j < perRound; j++ {
				price := 0.5 + float64(j%7)/7 // spread for the error bound
				logBid(t, a, uint64(1+i*10000+round*100+j), 7, price, base)
			}
		}
		logged += 2 * perRound
		lc.FlushAgents()
	}

	for i, a := range lc.Agents() {
		st := a.Stats()
		if st.GovernorDownsamples != 6 || st.GovernorSheds != 1 || st.GovernorRecovers != 0 {
			t.Errorf("agent %d ladder = %d downsamples, %d recovers, %d sheds; want 6, 0, 1",
				i, st.GovernorDownsamples, st.GovernorRecovers, st.GovernorSheds)
		}
	}

	// Keep virtual time (and thus heartbeats) moving until the window's
	// close hold has passed, so liveness leases stay renewed and the
	// emitted windows reflect governor state, not lease expiry.
	stopPump := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		for {
			select {
			case <-stopPump:
				return
			case <-time.After(50 * time.Millisecond):
				step.Add(1)
				lc.FlushAgents()
			}
		}
	}()
	defer func() { close(stopPump); pumpWG.Wait() }()

	waitWindow := func(name string, st *Stream) transport.ResultWindow {
		t.Helper()
		select {
		case rw, ok := <-st.Windows:
			if !ok {
				t.Fatalf("%s: stream closed without a window", name)
			}
			return rw
		case <-time.After(15 * time.Second):
			t.Fatalf("%s: no window within 15s", name)
		}
		panic("unreachable")
	}

	brw := waitWindow("budgeted", budgeted)
	if !brw.BudgetShed {
		t.Error("budgeted window not flagged BudgetShed")
	}
	if !brw.Approx {
		t.Error("budgeted window not Approx despite governor rate deviation")
	}
	if brw.Degraded {
		t.Error("budgeted window Degraded — leases should have stayed live")
	}
	if len(brw.ErrBounds) == 0 || math.IsNaN(brw.ErrBounds[0]) || brw.ErrBounds[0] <= 0 {
		t.Errorf("budgeted count bound = %v, want a positive bound", brw.ErrBounds)
	}
	sawShedStream := false
	for _, s := range brw.Streams {
		if s.BudgetShed {
			sawShedStream = true
			if want := 1.0 / 64; math.Abs(s.EffRate-want) > 1e-9 {
				t.Errorf("shed stream %s EffRate = %g, want %g", s.HostID, s.EffRate, want)
			}
			if s.Bytes == 0 {
				t.Errorf("shed stream %s reported zero shipped bytes", s.HostID)
			}
		}
	}
	if !sawShedStream {
		t.Errorf("no stream flagged BudgetShed in %+v", brw.Streams)
	}

	srw := waitWindow("sibling", sibling)
	if srw.BudgetShed || srw.Approx {
		t.Errorf("sibling window BudgetShed=%v Approx=%v, want false/false", srw.BudgetShed, srw.Approx)
	}

	// Drain both queries; the sibling must deliver every event exactly.
	if err := lc.Cancel(budgeted.Info.ID); err != nil {
		t.Fatal(err)
	}
	if err := lc.Cancel(sibling.Info.ID); err != nil {
		t.Fatal(err)
	}
	count := func(first transport.ResultWindow, st *Stream) float64 {
		total := 0.0
		sum := func(rw transport.ResultWindow) {
			for _, row := range rw.Rows {
				n, _ := row[0].AsFloat() // scaled counts render as floats
				total += n
			}
		}
		sum(first)
		for rw := range st.Windows {
			sum(rw)
		}
		return total
	}
	budgetedCount := count(brw, budgeted)
	siblingCount := count(srw, sibling)
	if siblingCount != float64(logged) {
		t.Errorf("sibling count = %g, want %d", siblingCount, logged)
	}
	// The budgeted query's estimate stays nonzero — interval 1 ran at
	// full rate before the ladder bit.
	if budgetedCount <= 0 {
		t.Errorf("budgeted count = %g, want > 0", budgetedCount)
	}

	bstats := budgeted.Final()
	if bstats.ShedWindows == 0 {
		t.Errorf("budgeted final ShedWindows = 0, want >= 1 (stats %+v)", bstats)
	}
	sstats := sibling.Final()
	if sstats.ShedWindows != 0 || sstats.DegradedWindows != 0 {
		t.Errorf("sibling final stats = %+v, want no shed/degraded windows", sstats)
	}

	// The same story must be visible on /metrics: one shed per host, and
	// at least one shed window at central.
	var sheds, shedWindows float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "scrub_host_governor_sheds_total":
			sheds += s.Value
		case "scrub_central_shed_windows_total":
			shedWindows += s.Value
		}
	}
	if sheds != 2 {
		t.Errorf("scrub_host_governor_sheds_total sums to %g, want 2", sheds)
	}
	if shedWindows < 1 {
		t.Errorf("scrub_central_shed_windows_total = %g, want >= 1", shedWindows)
	}
}
