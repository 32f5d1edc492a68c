// Package governor enforces per-query host-impact budgets — the control
// half of the loop whose measurement half is internal/obs.
//
// Scrub's contract (paper §1, §5) is bounded impact on application hosts:
// selection, projection, and sampling exist to shrink what the host pays.
// A troubleshooter can still submit a query whose predicate matches
// everything or whose projection ships every column. The governor closes
// that hole: each query carries an optional budget (CPU share and bytes
// shipped per second, attached with the BUDGET clause at registration),
// the host agent measures actual cost per enforcement interval, and a
// Tracker degrades the query in stages rather than letting it breach the
// budget or killing it outright:
//
//	over budget  → halve the effective sampling-rate multiplier
//	…repeat…     → floor reached (MinMult): shed the query on this host
//	under budget → double the multiplier back toward 1
//
// Downsampling keeps results statistically honest — the effective rate
// ships with every batch so ScrubCentral widens the multistage-sampling
// error bounds accordingly (internal/sampling Eq. 1–3). Shedding is
// sticky for the query's remaining span on that host and is announced
// with an explicit BudgetShed marker, mirroring how lease expiry marks
// windows Degraded: the troubleshooter always sees *that* accuracy was
// traded, never silently wrong numbers.
//
// The package is pure bookkeeping (no clocks, no goroutines): the host
// agent drives Evaluate from its flush cycle with whatever clock it is
// configured with, which keeps enforcement deterministic under test.
package governor

// Budget caps one query's impact on one host. Zero fields are unlimited.
type Budget struct {
	// CPUPct is the share of one core the query may consume, as a
	// fraction in (0, 1]: 0.02 means 2% of a core.
	CPUPct float64
	// BytesPerSec caps encoded tuple-batch bytes shipped per second.
	BytesPerSec float64
}

// Unlimited reports whether the budget constrains nothing.
func (b Budget) Unlimited() bool { return b.CPUPct <= 0 && b.BytesPerSec <= 0 }

// Min combines two budgets field-wise, treating zero as unlimited.
func (b Budget) Min(o Budget) Budget {
	out := b
	if out.CPUPct <= 0 || (o.CPUPct > 0 && o.CPUPct < out.CPUPct) {
		out.CPUPct = o.CPUPct
	}
	if out.BytesPerSec <= 0 || (o.BytesPerSec > 0 && o.BytesPerSec < out.BytesPerSec) {
		out.BytesPerSec = o.BytesPerSec
	}
	return out
}

// Config tunes enforcement; the zero value caps nothing host-wide.
type Config struct {
	// HostBudget caps the *aggregate* impact of all queries on a host.
	// When the aggregate exceeds it, every query is additionally held to
	// an equal share (see EffectiveBudget) — even queries with no budget
	// of their own, so one host cap bounds total Scrub impact.
	HostBudget Budget
}

// MinMult is the sampling-multiplier floor: once halving would go below
// it the query is shed instead.
const MinMult = 1.0 / 64

// RecoverBelow is the load (usage/budget) under which the multiplier
// doubles back toward 1: just under half, so recovery cannot immediately
// re-trip the halving.
const RecoverBelow = 0.45

// Usage is one query's measured cost over one enforcement interval.
type Usage struct {
	CPUNs     uint64 // CPU nanoseconds spent on the query's hot path
	Bytes     uint64 // encoded bytes shipped for the query
	ElapsedNs int64  // interval length; <= 0 skips evaluation
}

// Action is the Tracker's decision for one interval.
type Action int

const (
	// ActionNone: within budget (or nothing to enforce); no change.
	ActionNone Action = iota
	// ActionDownsample: over budget; the multiplier was halved and the
	// caller must re-arm its keep test at Mult()·base rate.
	ActionDownsample
	// ActionRecover: comfortably under budget; the multiplier was
	// doubled back toward 1 and the keep test must be re-armed.
	ActionRecover
	// ActionShed: the floor was reached while still over budget; the
	// query must stop paying per-event cost on this host and announce
	// BudgetShed. Sticky for the query's remaining span.
	ActionShed
)

// Tracker holds one query's position on the degradation ladder. Not safe
// for concurrent use; the host agent drives it from its shipper goroutine.
type Tracker struct {
	mult float64
	shed bool
}

// NewTracker starts at full rate.
func NewTracker() *Tracker { return &Tracker{mult: 1} }

// Mult is the current effective sampling-rate multiplier in (0, 1].
func (t *Tracker) Mult() float64 { return t.mult }

// Load is usage relative to budget: the max over the budgeted dimensions
// of (rate used)/(rate allowed). 0 when nothing is budgeted or elapsed
// is unusable.
func Load(u Usage, b Budget) float64 {
	if u.ElapsedNs <= 0 {
		return 0
	}
	load := 0.0
	if b.CPUPct > 0 {
		if l := float64(u.CPUNs) / float64(u.ElapsedNs) / b.CPUPct; l > load {
			load = l
		}
	}
	if b.BytesPerSec > 0 {
		sec := float64(u.ElapsedNs) / 1e9
		if l := float64(u.Bytes) / sec / b.BytesPerSec; l > load {
			load = l
		}
	}
	return load
}

// Evaluate advances the ladder one interval and returns what the caller
// must apply. A shed tracker never acts again.
func (t *Tracker) Evaluate(u Usage, b Budget) Action {
	if t.shed || b.Unlimited() || u.ElapsedNs <= 0 {
		return ActionNone
	}
	load := Load(u, b)
	switch {
	case load > 1:
		next := t.mult / 2
		if next < MinMult {
			t.shed = true
			return ActionShed
		}
		t.mult = next
		return ActionDownsample
	case t.mult < 1 && load < RecoverBelow:
		t.mult *= 2
		if t.mult > 1 {
			t.mult = 1
		}
		return ActionRecover
	}
	return ActionNone
}

// EffectiveBudget is the budget to enforce for one query this interval:
// its explicit budget, tightened to an equal share of the host-wide cap
// when the host aggregate is over that cap. nActive is the number of
// queries active on the host (>= 1 when called).
func EffectiveBudget(explicit, host Budget, hostOver bool, nActive int) Budget {
	if !hostOver || host.Unlimited() || nActive < 1 {
		return explicit
	}
	share := Budget{
		CPUPct:      host.CPUPct / float64(nActive),
		BytesPerSec: host.BytesPerSec / float64(nActive),
	}
	return explicit.Min(share)
}
