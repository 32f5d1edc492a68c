package difftest

import (
	"testing"

	"scrub/internal/agg"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/oracle"
)

// TestSampledCountsAreUnbiased holds what event sampling does to
// count(*) in aggregate. Seeds 1–400 of the join family, and those of the
// grouped family whose query has no HAVING or LIMIT (a cut on sampled
// counts or on their order keeps different groups than the truth's), run
// in sampled mode at one shard; over every window and group, the engine's
// Σ count(*) must be within 10 % of the oracle's. A join whose two sides
// are sampled independently, and scaled up once, reads about q × truth.
//
//	go test ./internal/difftest -run TestSampledCountsAreUnbiased -v
func TestSampledCountsAreUnbiased(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 100
	}
	for _, fam := range []int{famJoin, famGrouped} {
		var got, want float64
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := Config{Seed: seed, Family: fam, Mode: modeSampled, Shards: 1}
			g, err := generate(cfg)
			if err != nil {
				t.Fatalf("[%s] %v", cfg, err)
			}
			if g.qp.Having != nil || g.qp.Limit > 0 {
				continue
			}
			sink, streams, population, err := g.hostHalf()
			if err != nil {
				t.Fatalf("[%s] %v", cfg, err)
			}
			arms, err := Arms(g.plan, catalog, g.schedule(sink, streams), cfg.Shards)
			if err != nil {
				t.Fatalf("[%s] %v\n  query: %s", cfg, err, g.src)
			}
			owins, err := oracle.Eval(g.plan, population)
			if err != nil {
				t.Fatalf("[%s] oracle: %v", cfg, err)
			}
			for _, w := range arms[0].Windows {
				got += g.countStars(w.Rows)
			}
			for _, w := range owins {
				want += g.countStars(w.Rows)
			}
		}
		ratio := got / want
		t.Logf("%s, seeds 1–%d: Σ count(*) %.0f against the oracle's %.0f (%.3f)", famName(fam), seeds, got, want, ratio)
		if !(ratio >= 0.9 && ratio <= 1.1) {
			t.Errorf("%s: sampled Σ count(*) is %.3f × the truth, want within [0.9, 1.1]", famName(fam), ratio)
		}
	}
}

// countStars sums the count(*) columns of rows.
func (g *gen) countStars(rows [][]event.Value) float64 {
	var sum float64
	for col, item := range g.plan.Select {
		if ar, ok := item.Expr.(expr.AggRef); !ok || ar.Spec.Kind != agg.KindCountStar {
			continue
		}
		for _, row := range rows {
			if f, ok := row[col].AsFloat(); ok {
				sum += f
			}
		}
	}
	return sum
}
