package liveness

import (
	"reflect"
	"testing"
	"time"
)

func ns(s int64) int64 { return s * int64(time.Second) }

func TestTouchExpireReadmit(t *testing.T) {
	tab := NewTable(2 * time.Second)
	k1 := Key{Host: "h1"}
	k2 := Key{Host: "h2"}

	if _, re := tab.Touch(k1, ns(0)); re {
		t.Error("first touch should not be a re-admission")
	}
	tab.Touch(k2, ns(0))
	if tab.Len() != 2 || tab.AnyEvicted() {
		t.Fatalf("len=%d evicted=%v", tab.Len(), tab.AnyEvicted())
	}

	// h1 keeps heartbeating; h2 goes silent.
	tab.Touch(k1, ns(1))
	if got := tab.Expire(ns(1)); len(got) != 0 {
		t.Fatalf("nothing should expire at 1s, got %v", got)
	}
	got := tab.Expire(ns(2))
	if want := []Key{k2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Expire = %v, want %v", got, want)
	}
	if !tab.AnyEvicted() || !tab.streams[k2].Evicted {
		t.Error("h2 should be evicted")
	}
	// Repeated expiry does not re-report (h1 keeps heartbeating).
	tab.Touch(k1, ns(2))
	if got := tab.Expire(ns(3)); len(got) != 0 {
		t.Errorf("already-evicted stream re-reported: %v", got)
	}

	// h2 reconnects: re-admitted, eviction counted.
	s, re := tab.Touch(k2, ns(4))
	if !re {
		t.Error("touch after eviction should report re-admission")
	}
	if s.Evicted || s.Evictions != 1 {
		t.Errorf("stream = %+v", s)
	}
	if tab.AnyEvicted() {
		t.Error("no stream should remain evicted")
	}
}

func TestWatermarkSkipsEvicted(t *testing.T) {
	tab := NewTable(time.Second)
	k1, k2 := Key{Host: "h1"}, Key{Host: "h2"}

	if _, ok := tab.Watermark(); ok {
		t.Error("empty table should have no watermark")
	}
	s1, _ := tab.Touch(k1, ns(0))
	s1.ObserveTs(ns(10))
	// h2 has only heartbeated — no tuple timestamps — so it must not pin
	// the watermark at zero.
	tab.Touch(k2, ns(0))
	if wm, ok := tab.Watermark(); !ok || wm != ns(10) {
		t.Fatalf("watermark = %d,%v want %d", wm, ok, ns(10))
	}

	s2, _ := tab.Touch(k2, ns(0))
	s2.ObserveTs(ns(4))
	if wm, _ := tab.Watermark(); wm != ns(4) {
		t.Fatalf("watermark = %d, want min %d", wm, ns(4))
	}

	// Evicting h2 releases the watermark to h1's clock.
	tab.Touch(k1, ns(5))
	tab.Expire(ns(5))
	if wm, ok := tab.Watermark(); !ok || wm != ns(10) {
		t.Fatalf("watermark after eviction = %d,%v want %d", wm, ok, ns(10))
	}

	// Re-admission pulls it back in.
	tab.Touch(k2, ns(6))
	if wm, _ := tab.Watermark(); wm != ns(4) {
		t.Fatalf("watermark after re-admission = %d, want %d", wm, ns(4))
	}

	s1.ObserveTs(ns(8)) // regressions are ignored
	if wm, _ := tab.Watermark(); wm != ns(4) {
		t.Fatalf("watermark = %d after stale ObserveTs", wm)
	}
	if s1.LastTs != ns(10) {
		t.Errorf("LastTs regressed to %d", s1.LastTs)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	tab := NewTable(time.Second)
	for _, h := range []string{"h3", "h1", "h2"} {
		for _, ti := range []uint8{1, 0} {
			s, _ := tab.Touch(Key{Host: h, TypeIdx: ti}, ns(0))
			s.Matched, s.Sampled, s.Drops = 10, 5, 1
		}
	}
	tab.Expire(ns(5))
	snap := tab.Snapshot()
	if len(snap) != 6 {
		t.Fatalf("snapshot len = %d", len(snap))
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
	if tab.HostDrops() != 6 {
		t.Errorf("HostDrops = %d, want 6", tab.HostDrops())
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
