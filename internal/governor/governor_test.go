package governor

import "testing"

func sec(cpuNs, bytes uint64) Usage {
	return Usage{CPUNs: cpuNs, Bytes: bytes, ElapsedNs: 1e9}
}

func TestUnlimitedNoop(t *testing.T) {
	tr := NewTracker()
	if a := tr.Evaluate(sec(1e9, 1e9), Budget{}); a != ActionNone {
		t.Fatalf("unlimited budget acted: %v", a)
	}
	if tr.Mult() != 1 || tr.shed {
		t.Fatalf("tracker moved: mult=%g shed=%v", tr.Mult(), tr.shed)
	}
}

func TestZeroElapsedNoop(t *testing.T) {
	tr := NewTracker()
	b := Budget{BytesPerSec: 1}
	if a := tr.Evaluate(Usage{Bytes: 1 << 20, ElapsedNs: 0}, b); a != ActionNone {
		t.Fatalf("zero elapsed acted: %v", a)
	}
}

// The ladder: 1 → 1/2 → … → 1/64 (six halvings), then shed, then sticky.
func TestLadderDownToShed(t *testing.T) {
	tr := NewTracker()
	b := Budget{BytesPerSec: 1}
	u := sec(0, 1000) // always over
	wantMults := []float64{1.0 / 2, 1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64}
	for i, want := range wantMults {
		if a := tr.Evaluate(u, b); a != ActionDownsample {
			t.Fatalf("step %d: action %v, want downsample", i, a)
		}
		if tr.Mult() != want {
			t.Fatalf("step %d: mult %g, want %g", i, tr.Mult(), want)
		}
	}
	if a := tr.Evaluate(u, b); a != ActionShed {
		t.Fatalf("floor breach: action %v, want shed", a)
	}
	if !tr.shed {
		t.Fatal("not shed")
	}
	// Sticky: even a now-idle query stays shed.
	if a := tr.Evaluate(sec(0, 0), b); a != ActionNone {
		t.Fatalf("post-shed action %v, want none", a)
	}
	if !tr.shed {
		t.Fatal("shed not sticky")
	}
}

func TestRecovery(t *testing.T) {
	tr := NewTracker()
	b := Budget{CPUPct: 0.10} // 10% of a core
	over := sec(200e6, 0)     // 20% used
	idle := sec(1e6, 0)       // 0.1% used
	if a := tr.Evaluate(over, b); a != ActionDownsample {
		t.Fatalf("action %v, want downsample", a)
	}
	if a := tr.Evaluate(over, b); a != ActionDownsample {
		t.Fatalf("action %v, want downsample", a)
	}
	if tr.Mult() != 0.25 {
		t.Fatalf("mult %g, want 0.25", tr.Mult())
	}
	if a := tr.Evaluate(idle, b); a != ActionRecover {
		t.Fatalf("action %v, want recover", a)
	}
	if a := tr.Evaluate(idle, b); a != ActionRecover {
		t.Fatalf("action %v, want recover", a)
	}
	if tr.Mult() != 1 {
		t.Fatalf("mult %g, want 1", tr.Mult())
	}
	// At full rate, under-budget load does nothing more.
	if a := tr.Evaluate(idle, b); a != ActionNone {
		t.Fatalf("action %v, want none at mult 1", a)
	}
}

// Load just under budget neither halves nor recovers (hysteresis band).
func TestHysteresisBand(t *testing.T) {
	tr := NewTracker()
	b := Budget{CPUPct: 0.10}
	over := sec(300e6, 0) // 3× over
	tr.Evaluate(over, b)
	mid := sec(80e6, 0) // 80% of budget: inside the band
	if a := tr.Evaluate(mid, b); a != ActionNone {
		t.Fatalf("action %v, want none in hysteresis band", a)
	}
	if tr.Mult() != 0.5 {
		t.Fatalf("mult %g, want 0.5", tr.Mult())
	}
}

func TestLoad(t *testing.T) {
	b := Budget{CPUPct: 0.5, BytesPerSec: 100}
	// CPU at 50% of a core = exactly at budget; bytes at 200/s = 2×.
	if l := Load(sec(500e6, 200), b); l != 2 {
		t.Fatalf("load %g, want 2 (bytes dominates)", l)
	}
	if l := Load(sec(250e6, 10), b); l != 0.5 {
		t.Fatalf("load %g, want 0.5", l)
	}
}

func TestBudgetMin(t *testing.T) {
	a := Budget{CPUPct: 0.1}
	b := Budget{CPUPct: 0.5, BytesPerSec: 100}
	m := a.Min(b)
	if m.CPUPct != 0.1 || m.BytesPerSec != 100 {
		t.Fatalf("min = %+v", m)
	}
	if got := (Budget{}).Min(b); got != b {
		t.Fatalf("unlimited.Min = %+v, want %+v", got, b)
	}
}

func TestEffectiveBudget(t *testing.T) {
	host := Budget{CPUPct: 0.1, BytesPerSec: 1000}
	explicit := Budget{BytesPerSec: 100}
	// Host under its cap: explicit budget only.
	if got := EffectiveBudget(explicit, host, false, 4); got != explicit {
		t.Fatalf("under cap: %+v", got)
	}
	// Host over its cap with 4 queries: equal share, min'd with explicit.
	got := EffectiveBudget(explicit, host, true, 4)
	if got.CPUPct != 0.025 || got.BytesPerSec != 100 {
		t.Fatalf("over cap: %+v", got)
	}
	// Unbudgeted query still gets held to the share.
	got = EffectiveBudget(Budget{}, host, true, 2)
	if got.CPUPct != 0.05 || got.BytesPerSec != 500 {
		t.Fatalf("unbudgeted share: %+v", got)
	}
	if got := EffectiveBudget(explicit, Budget{}, true, 2); got != explicit {
		t.Fatalf("no host cap: %+v", got)
	}
}

// One rung above the floor a query is downsampled onto it, and from the
// floor it is shed.
func TestFloor(t *testing.T) {
	tr := &Tracker{mult: 2 * MinMult}
	b := Budget{BytesPerSec: 1}
	if a := tr.Evaluate(sec(0, 10), b); a != ActionDownsample || tr.Mult() != MinMult {
		t.Fatalf("action %v at mult %g, want downsample onto the floor %g", a, tr.Mult(), MinMult)
	}
	if a := tr.Evaluate(sec(0, 10), b); a != ActionShed {
		t.Fatalf("action %v, want shed at the floor", a)
	}
}
