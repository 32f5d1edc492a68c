package central

import (
	"strings"

	"scrub/internal/event"
)

// compareValues totally orders two result values: Value.Compare when the
// kinds allow it, else the string forms. Used for deterministic result
// ordering — a total order is required so ORDER BY ties and raw-row
// output are reproducible across runs and across the single-node and
// sharded engines.
func compareValues(a, b event.Value) int {
	if c, ok := a.Compare(b); ok {
		return c
	}
	return strings.Compare(a.String(), b.String())
}

// compareRows totally orders two result rows column by column. Shorter
// rows (never produced by one plan, but kept total for safety) sort
// first.
func compareRows(a, b []event.Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := compareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
