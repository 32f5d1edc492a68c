package agg

import (
	"scrub/internal/sketch"
	"scrub/internal/wire"
)

// State codec: an aggregator's accumulated state as a sharded ScrubCentral
// ships it from a shard to the coordinator for merging (Slab.Code).
// Numeric state travels as raw IEEE-754 bits and sketches in their own
// forms, so a decoded state merges and renders bit-identically to the
// encoded one. The spec is not coded — the decoder carves the state, its
// sketch included, from the plan's Spec for the same aggregate slot,
// exactly like Merge pairs partials by slot. A sketch's shape (a summary's
// capacity, an estimator's precision) is coded, and one that is not the
// spec's is refused.

// codeState is a state's description: the observation count, then what
// its kind keeps.
func codeState(c *wire.Coder, a Aggregator) {
	switch ag := a.(type) {
	case *countAgg:
		c.Uvarint(&ag.n)
	case *countStarAgg:
		c.Uvarint(&ag.n)
	case *sumAgg:
		c.Uvarint(&ag.n)
		c.I64(&ag.intSum)
		c.F64(&ag.fltSum)
		c.NonZero(&ag.isFloat)
	case *avgAgg:
		c.Uvarint(&ag.n)
		c.F64(&ag.sum)
	case *extremeAgg:
		c.Uvarint(&ag.n)
		if ag.n != 0 {
			c.Value(&ag.best)
		}
	case *topKAgg:
		c.Uvarint(&ag.n)
		sketch.CodeSpaceSaving(c, ag.ss)
	case *distinctAgg:
		c.Uvarint(&ag.n)
		sketch.CodeHLL(c, ag.hll)
	}
}
