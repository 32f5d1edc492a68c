package liveness

import (
	"reflect"
	"testing"
	"time"

	"scrub/internal/transport"
)

func ns(s int64) int64 { return s * int64(time.Second) }

// beat folds a counter-only heartbeat from k's stream at now.
func beat(tab *Table, k Key, now int64) {
	tab.Fold(manifest(k, transport.TupleBatch{}), now)
}

// manifest is b's header for k's stream, as RouteToShards builds it.
func manifest(k Key, b transport.TupleBatch) *transport.BatchManifest {
	b.HostID, b.TypeIdx = k.Host, k.TypeIdx
	return &transport.BatchManifest{TupleBatch: b}
}

// at is a manifest from k's stream whose tuples reached event time ts.
func at(k Key, ts int64) *transport.BatchManifest {
	m := manifest(k, transport.TupleBatch{})
	m.HasTs, m.MaxTs = true, ts
	return m
}

func TestFoldExpireReadmit(t *testing.T) {
	tab := NewTable(2 * time.Second)
	k1 := Key{Host: "h1"}
	k2 := Key{Host: "h2"}

	beat(tab, k1, ns(0))
	beat(tab, k2, ns(0))
	if tab.Len() != 2 || tab.Report().Evicted != 0 {
		t.Fatalf("len=%d evicted=%d", tab.Len(), tab.Report().Evicted)
	}

	// h1 keeps heartbeating; h2 goes silent.
	beat(tab, k1, ns(1))
	if got := tab.Expire(ns(1)); len(got) != 0 {
		t.Fatalf("nothing should expire at 1s, got %v", got)
	}
	got := tab.Expire(ns(2))
	if want := []Key{k2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Expire = %v, want %v", got, want)
	}
	if tab.Report().Evicted != 1 || !tab.streams[k2].Evicted {
		t.Error("h2 should be evicted")
	}
	// Repeated expiry does not re-report (h1 keeps heartbeating).
	beat(tab, k1, ns(2))
	if got := tab.Expire(ns(3)); len(got) != 0 {
		t.Errorf("already-evicted stream re-reported: %v", got)
	}

	// h2 reconnects: re-admitted.
	beat(tab, k2, ns(4))
	if s := tab.streams[k2]; s.Evicted || s.LastSeen != ns(4) {
		t.Errorf("stream = %+v", s)
	}
	if tab.Report().Evicted != 0 {
		t.Error("no stream should remain evicted")
	}
}

func TestWatermarkSkipsEvicted(t *testing.T) {
	tab := NewTable(time.Second)
	k1, k2 := Key{Host: "h1"}, Key{Host: "h2"}

	if _, ok := tab.Watermark(); ok {
		t.Error("empty table should have no watermark")
	}
	tab.Fold(at(k1, ns(10)), ns(0))
	// h2 has only heartbeated — no tuple timestamps — so it must not pin
	// the watermark at zero.
	beat(tab, k2, ns(0))
	if wm, ok := tab.Watermark(); !ok || wm != ns(10) {
		t.Fatalf("watermark = %d,%v want %d", wm, ok, ns(10))
	}

	tab.Fold(at(k2, ns(4)), ns(0))
	if wm, _ := tab.Watermark(); wm != ns(4) {
		t.Fatalf("watermark = %d, want min %d", wm, ns(4))
	}

	// Evicting h2 releases the watermark to h1's clock.
	beat(tab, k1, ns(5))
	tab.Expire(ns(5))
	if wm, ok := tab.Watermark(); !ok || wm != ns(10) {
		t.Fatalf("watermark after eviction = %d,%v want %d", wm, ok, ns(10))
	}

	// Re-admission pulls it back in.
	beat(tab, k2, ns(6))
	if wm, _ := tab.Watermark(); wm != ns(4) {
		t.Fatalf("watermark after re-admission = %d, want %d", wm, ns(4))
	}

	tab.Fold(at(k1, ns(8)), ns(6)) // regressions are ignored
	if wm, _ := tab.Watermark(); wm != ns(4) {
		t.Fatalf("watermark = %d after a stale MaxTs", wm)
	}
	if s := tab.streams[k1]; s.LastTs != ns(10) {
		t.Errorf("LastTs regressed to %d", s.LastTs)
	}
}

// TestFoldCounters folds a sequence of manifests into one stream and
// checks the StreamStat a window would report, the event clock and the
// replay state after each. Every central arm shares this fold, so
// agreement between arms cannot catch a field folded into the wrong place.
func TestFoldCounters(t *testing.T) {
	k := Key{Host: "h1", TypeIdx: 1}
	stat := func(s transport.StreamStat) transport.StreamStat {
		s.HostID, s.TypeIdx = k.Host, k.TypeIdx
		return s
	}
	type step struct {
		name string
		b    transport.TupleBatch
		// What routing did: MaxTs is set when hasTs.
		hasTs         bool
		maxTs         int64
		lateDelta     uint64
		overflowDelta uint64
		expire        bool // expire the lease before this step's batch

		want transport.StreamStat
		// wantOverflow is the stream's overflow so far: ShardDrops reports
		// it beside want.LateDrops, and the StreamStat does not.
		wantOverflow uint64
		wantTs       int64
		wantHasTs    bool
		replaying    bool
		replayEnded  bool
		settled      bool
	}
	full := stat(transport.StreamStat{Matched: 100, Sampled: 40, Drops: 3, LateDrops: 2, EffRate: 0.5, CPUNs: 700, Bytes: 900})
	shed := full
	shed.BudgetShed = true
	later := shed
	later.EffRate, later.LateDrops = 0.25, 7
	lateAgain := later
	lateAgain.LateDrops = 8
	back := lateAgain
	back.Matched = 120
	steps := []step{
		{name: "heartbeat", want: stat(transport.StreamStat{})},
		{
			name: "counters, rate, late drops and clock",
			b: transport.TupleBatch{MatchedTotal: 100, SampledTotal: 40, QueueDrops: 3,
				EffRate: 0.5, CPUNs: 700, ShipBytes: 900},
			hasTs: true, maxTs: ns(10), lateDelta: 2,
			want: full, wantTs: ns(10), wantHasTs: true,
		},
		{
			name: "stale duplicate regresses nothing",
			b: transport.TupleBatch{MatchedTotal: 90, SampledTotal: 30, QueueDrops: 1,
				EffRate: 0.5, CPUNs: 600, ShipBytes: 800},
			hasTs: true, maxTs: ns(7),
			want: full, wantTs: ns(10), wantHasTs: true,
		},
		{
			name: "rate 0 keeps the last rate; shed is set",
			b:    transport.TupleBatch{BudgetShed: true},
			want: shed, wantTs: ns(10), wantHasTs: true,
		},
		{
			name: "shed stays set; a new rate replaces; late drops add up",
			b:    transport.TupleBatch{EffRate: 0.25}, lateDelta: 5,
			want: later, wantTs: ns(10), wantHasTs: true,
		},
		{
			name: "overflow adds up, in ShardDrops only", overflowDelta: 3,
			want: later, wantOverflow: 3, wantTs: ns(10), wantHasTs: true,
		},
		{
			name: "overflow and late drops add up together", lateDelta: 1, overflowDelta: 2,
			want: lateAgain, wantOverflow: 5, wantTs: ns(10), wantHasTs: true,
		},
		{
			name: "replay epoch starts the replay",
			b:    transport.TupleBatch{ReplayEpoch: 1},
			want: lateAgain, wantOverflow: 5, wantTs: ns(10), wantHasTs: true, replaying: true,
		},
		{
			name: "done marker ends it",
			b:    transport.TupleBatch{ReplayEpoch: 1, ReplayDone: true},
			want: lateAgain, wantOverflow: 5, wantTs: ns(10), wantHasTs: true, replayEnded: true, settled: true,
		},
		{
			name: "an epoch batch after done does not restart the replay",
			b:    transport.TupleBatch{ReplayEpoch: 1},
			want: lateAgain, wantOverflow: 5, wantTs: ns(10), wantHasTs: true, replayEnded: true, settled: true,
		},
		{
			name: "a batch re-admits an evicted stream and moves its clock",
			b:    transport.TupleBatch{MatchedTotal: 120}, hasTs: true, maxTs: ns(12), expire: true,
			want: back, wantOverflow: 5, wantTs: ns(12), wantHasTs: true, replayEnded: true, settled: true,
		},
	}
	tab := NewTable(time.Second)
	now := ns(0)
	for _, st := range steps {
		if st.expire {
			now += ns(5)
			if got := tab.Expire(now); !reflect.DeepEqual(got, []Key{k}) || tab.Report().Evicted != 1 {
				t.Fatalf("%s: Expire = %v, %d evicted", st.name, got, tab.Report().Evicted)
			}
		}
		m := manifest(k, st.b)
		m.HasTs, m.MaxTs, m.LateDelta, m.OverflowDelta = st.hasTs, st.maxTs, st.lateDelta, st.overflowDelta
		tab.Fold(m, now)
		s := tab.streams[k]
		if s.StreamStat != st.want {
			t.Errorf("%s: stat = %+v, want %+v", st.name, s.StreamStat, st.want)
		}
		if got := tab.Report().ShardDrops; got != st.want.LateDrops+st.wantOverflow {
			t.Errorf("%s: ShardDrops = %d, want %d late + %d overflow", st.name, got, st.want.LateDrops, st.wantOverflow)
		}
		if s.LastTs != st.wantTs || s.HasTs != st.wantHasTs {
			t.Errorf("%s: clock = %d,%v, want %d,%v", st.name, s.LastTs, s.HasTs, st.wantTs, st.wantHasTs)
		}
		if s.Replaying != st.replaying || s.ReplayEnded != st.replayEnded || tab.ReplaySettled() != st.settled {
			t.Errorf("%s: replaying=%v ended=%v settled=%v, want %v %v %v", st.name,
				s.Replaying, s.ReplayEnded, tab.ReplaySettled(), st.replaying, st.replayEnded, st.settled)
		}
		if s.LastSeen != now || tab.Report().Evicted != 0 {
			t.Errorf("%s: lease at %d with %d evicted, want renewed at %d", st.name, s.LastSeen, tab.Report().Evicted, now)
		}
		if snap := tab.Report().Streams; len(snap) != 1 || snap[0] != st.want {
			t.Errorf("%s: snapshot = %+v", st.name, snap)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	tab := NewTable(time.Second)
	for _, h := range []string{"h3", "h1", "h2"} {
		for _, ti := range []uint8{1, 0} {
			k := Key{Host: h, TypeIdx: ti}
			tab.Fold(manifest(k, transport.TupleBatch{MatchedTotal: 10, SampledTotal: 5, QueueDrops: 1}), ns(0))
		}
	}
	tab.Expire(ns(5))
	snap := tab.Report().Streams
	if len(snap) != 6 || tab.Report().Evicted != 6 {
		t.Fatalf("snapshot len = %d, %d evicted", len(snap), tab.Report().Evicted)
	}
	for i := 1; i < len(snap); i++ {
		a, b := snap[i-1], snap[i]
		if a.HostID > b.HostID || (a.HostID == b.HostID && a.TypeIdx >= b.TypeIdx) {
			t.Fatalf("snapshot out of order at %d: %+v %+v", i, a, b)
		}
	}
	for _, s := range snap {
		if !s.Evicted || s.Matched != 10 || s.Sampled != 5 || s.Drops != 1 {
			t.Errorf("stat = %+v", s)
		}
	}
	if tab.Report().Drops != 6 {
		t.Errorf("HostDrops = %d, want 6", tab.Report().Drops)
	}
}

// TestReport folds a table of every kind of stream — evicted, shed,
// at its own rate, late, overflowing, silent about its rate
// — and holds each Report field to its hand-computed value.
func TestReport(t *testing.T) {
	if r := NewTable(time.Second).Report(); !reflect.DeepEqual(r, Report{}) {
		t.Errorf("empty table: %+v", r)
	}
	tab := NewTable(time.Second)
	// fold folds b's header from k's stream with what routing and the
	// shards made of the batch.
	fold := func(k Key, b transport.TupleBatch, routeDrops, lateDelta, overflowDelta uint64, now int64) {
		m := manifest(k, b)
		m.RouteDrops, m.LateDelta, m.OverflowDelta = routeDrops, lateDelta, overflowDelta
		tab.Fold(m, now)
	}
	a0, a1 := Key{Host: "a"}, Key{Host: "a", TypeIdx: 1}
	b0, c0, d0 := Key{Host: "b"}, Key{Host: "c"}, Key{Host: "d"}
	// c goes silent at 0 s with its rate and queue drops reported; the
	// rest report at 2 s, when c's lease has run out.
	fold(c0, transport.TupleBatch{QueueDrops: 5, EffRate: 1}, 0, 0, 0, ns(0))
	fold(d0, transport.TupleBatch{MatchedTotal: 7}, 0, 0, 0, ns(2))
	fold(a1, transport.TupleBatch{EffRate: 0.5}, 0, 4, 0, ns(2))
	fold(b0, transport.TupleBatch{EffRate: 0.25, BudgetShed: true}, 0, 1, 3, ns(2))
	fold(a0, transport.TupleBatch{MatchedTotal: 10, QueueDrops: 2, EffRate: 1}, 1, 0, 0, ns(2))
	tab.Expire(ns(2))

	want := Report{
		Streams: []transport.StreamStat{
			{HostID: "a", Matched: 10, Drops: 3, EffRate: 1},
			{HostID: "a", TypeIdx: 1, LateDrops: 4, EffRate: 0.5},
			{HostID: "b", LateDrops: 1, EffRate: 0.25, BudgetShed: true},
			{HostID: "c", Drops: 5, EffRate: 1, Evicted: true},
			{HostID: "d", Matched: 7},
		},
		Drops:      3 + 5,     // a's queue and routing drops, evicted c's queue drops
		ShardDrops: 4 + 1 + 3, // a's and b's late drops, b's overflow
		Evicted:    1,
		Shed:       true,
	}
	if got := tab.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("Report() =\n %+v\nwant\n %+v", got, want)
	}
}

func TestDefaultTTL(t *testing.T) {
	if got := time.Duration(NewTable(0).ttl); got != DefaultTTL {
		t.Errorf("TTL = %v, want %v", got, DefaultTTL)
	}
	if got := time.Duration(NewTable(-time.Second).ttl); got != DefaultTTL {
		t.Errorf("TTL = %v, want %v", got, DefaultTTL)
	}
}
