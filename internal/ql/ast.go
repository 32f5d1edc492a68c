package ql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"scrub/internal/expr"
)

// Default query parameters (paper §3.2: both the window and the query span
// have defaults so forgotten queries expire and windowing always applies).
const (
	DefaultWindow = 10 * time.Second
	DefaultSpan   = 5 * time.Minute
	MaxSpan       = 24 * time.Hour
)

// SelectItem is one output column: an expression and an optional alias.
type SelectItem struct {
	Expr  expr.Node
	Alias string
}

// Label returns the column header: the alias if present, otherwise the
// expression's text.
func (s SelectItem) Label() string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.Expr.String()
}

// TargetSpec is the parsed `@[...]` construct choosing the hosts a query
// runs on. Empty spec (or All) targets every host. Multiple criteria are
// conjunctive: `@[Service in BidServers and DC = "DC1"]` targets BidServer
// hosts in DC1.
type TargetSpec struct {
	All      bool
	Services []string // service names, ORed within the list
	Servers  []string // explicit host names, ORed within the list
	DC       string   // data-center filter
}

// IsZero reports whether no targeting was specified.
func (t TargetSpec) IsZero() bool {
	return !t.All && len(t.Services) == 0 && len(t.Servers) == 0 && t.DC == ""
}

// String renders the spec in query syntax.
func (t TargetSpec) String() string {
	if t.All || t.IsZero() {
		return "@[all]"
	}
	var parts []string
	if len(t.Services) > 0 {
		parts = append(parts, fmt.Sprintf("Service in (%s)", strings.Join(t.Services, ", ")))
	}
	if len(t.Servers) > 0 {
		parts = append(parts, fmt.Sprintf("Server in (%s)", strings.Join(t.Servers, ", ")))
	}
	if t.DC != "" {
		parts = append(parts, fmt.Sprintf("DC = %q", t.DC))
	}
	return "@[" + strings.Join(parts, " and ") + "]"
}

// Query is a parsed (not yet validated) Scrub query.
// OrderKey is one ORDER BY key: a resolved select-column index and a
// direction.
type OrderKey struct {
	Col  int // 0-based index into the select list
	Desc bool
}

type Query struct {
	Select  []SelectItem
	From    []string // event types; two entries mean an equi-join on request_id
	Where   expr.Node
	GroupBy []expr.FieldRef
	Having  expr.Node // filter over aggregate results, evaluated per group

	// OrderBy/Limit order and truncate each window's result rows at
	// ScrubCentral. OrderByRaw holds the parsed keys before validation
	// (column labels or 1-based ordinals).
	OrderByRaw []RawOrderKey
	Limit      int // 0 = no limit

	Window time.Duration // window size; 0 → DefaultWindow
	Slide  time.Duration // sliding interval; 0 → Window (tumbling)

	// Query span: the finite lifetime of the query (paper §3.2). StartAt
	// zero + StartIn zero means "start now".
	StartAt time.Time     // absolute start, if given
	StartIn time.Duration // relative start ("start +30s"), if given
	Span    time.Duration // 0 → DefaultSpan

	// Replay asks hosts with a record stream to replay this much history
	// from before the query's start through the normal pipeline before
	// going live (the REPLAY clause); 0 disables replay.
	Replay time.Duration

	Target TargetSpec

	// Sampling rates as fractions in (0,1]; 0 means unset (no sampling).
	SampleHosts  float64
	SampleEvents float64

	// Host-impact budget (the BUDGET clause); 0 means unlimited. When a
	// host exceeds the budget the governor first tightens the effective
	// event-sampling rate, then sheds the query on that host.
	BudgetCPUPct      float64 // share of one core, as a fraction in (0,1]
	BudgetBytesPerSec float64 // shipped tuple-batch bytes per second

	Raw string // original query text
}

// Budgeted reports whether the query carries a host-impact budget.
func (q *Query) Budgeted() bool { return q.BudgetCPUPct > 0 || q.BudgetBytesPerSec > 0 }

// RawOrderKey is an ORDER BY key as parsed: either a 1-based select
// ordinal or a column label, plus the direction.
type RawOrderKey struct {
	Ordinal int    // 1-based; 0 when Label is set
	Label   string // select alias or expression text
	Desc    bool
}

// String reconstructs a canonical query text (not byte-identical to the
// input; used in logs and diagnostics).
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("select ")
	for i, it := range q.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" as ")
			sb.WriteString(it.Alias)
		}
	}
	sb.WriteString(" from ")
	sb.WriteString(strings.Join(q.From, ", "))
	if q.Where != nil {
		sb.WriteString(" where ")
		sb.WriteString(q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" group by ")
		for i, g := range q.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if q.Having != nil {
		sb.WriteString(" having ")
		sb.WriteString(q.Having.String())
	}
	if len(q.OrderByRaw) > 0 {
		sb.WriteString(" order by ")
		for i, k := range q.OrderByRaw {
			if i > 0 {
				sb.WriteString(", ")
			}
			if k.Ordinal > 0 {
				fmt.Fprintf(&sb, "%d", k.Ordinal)
			} else {
				sb.WriteString(k.Label)
			}
			if k.Desc {
				sb.WriteString(" desc")
			}
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, " limit %d", q.Limit)
	}
	if q.Window != 0 {
		fmt.Fprintf(&sb, " window %s", durText(q.Window))
		if q.Slide != 0 && q.Slide != q.Window {
			fmt.Fprintf(&sb, " slide %s", durText(q.Slide))
		}
	}
	if !q.StartAt.IsZero() {
		fmt.Fprintf(&sb, " start %q", q.StartAt.Format(time.RFC3339))
	} else if q.StartIn != 0 {
		fmt.Fprintf(&sb, " start +%s", durText(q.StartIn))
	}
	if q.Span != 0 {
		fmt.Fprintf(&sb, " duration %s", durText(q.Span))
	}
	if q.Replay != 0 {
		fmt.Fprintf(&sb, " replay %s", durText(q.Replay))
	}
	if !q.Target.IsZero() {
		sb.WriteString(" ")
		sb.WriteString(q.Target.String())
	}
	if q.SampleHosts != 0 || q.SampleEvents != 0 {
		sb.WriteString(" sample")
		if q.SampleHosts != 0 {
			fmt.Fprintf(&sb, " hosts %s%%", formatNum(q.SampleHosts*100))
		}
		if q.SampleEvents != 0 {
			fmt.Fprintf(&sb, " events %s%%", formatNum(q.SampleEvents*100))
		}
	}
	if q.Budgeted() {
		sb.WriteString(" budget")
		if q.BudgetCPUPct != 0 {
			fmt.Fprintf(&sb, " cpu %s%%", formatNum(q.BudgetCPUPct*100))
		}
		if q.BudgetBytesPerSec != 0 {
			fmt.Fprintf(&sb, " bytes %s", formatNum(q.BudgetBytesPerSec))
		}
	}
	return sb.String()
}

// durText renders a duration in the lexer's vocabulary: time.Duration
// spells microseconds "µs", the query language "us".
func durText(d time.Duration) string {
	return strings.Replace(d.String(), "µs", "us", 1)
}

// formatNum renders a float without exponent notation: %g emits strings
// like 1.048576e+06 for large budgets, which the lexer (by design)
// refuses to read back, breaking the String→Parse round-trip.
func formatNum(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}
