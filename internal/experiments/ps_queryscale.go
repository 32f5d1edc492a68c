package experiments

import (
	"fmt"
)

// PS measures how per-request host cost scales to hundreds of concurrent
// queries — the regime the shared query index (DESIGN.md §14) exists
// for. The paper's deployment runs "hundreds of queries" per host; P1's
// 0–32 sweep does not reach the regime where per-query dispatch cost
// dominates, so PS extends the sweep to 256 under two predicate mixes:
//
//   - overlap: queries cycle through OverlapPreds distinct selective
//     predicates, the realistic shape (many troubleshooters watch the
//     same few suspicious slices). Every duplicated predicate
//     canonicalizes onto one shared DAG node, so added-ns should grow
//     sublinearly in query count.
//   - distinct: every query carries a unique predicate constant, so no
//     two predicates share a node. This is the adversarial no-sharing
//     bound — and the regression guard showing the shared-index
//     machinery costs no more than the old per-query loop when sharing
//     gives nothing (compare with P1 at the same query count).

// PSConfig parametrizes the query-scale sweep.
type PSConfig struct {
	Requests   int   `json:"requests"`    // requests per measurement; default 30000
	LineItems  int   `json:"line_items"`  // default 150
	QuerySweep []int `json:"query_sweep"` // default {0,1,2,4,8,16,32,64,128,256}
	// Reps per sweep point; the reported ns/request is the median (see
	// P1Config.Reps). Default 3.
	Reps int   `json:"reps"`
	Seed int64 `json:"seed"` // default 9303
	// OverlapPreds is the number of distinct predicates the overlap mix
	// cycles through. Default 16.
	OverlapPreds int `json:"overlap_preds"`
	// ReferenceRequestNs: see P1Config. Default 10ms.
	ReferenceRequestNs float64 `json:"reference_request_ns"`
}

func (c *PSConfig) fillDefaults() {
	if c.Requests == 0 {
		c.Requests = 30000
	}
	if c.LineItems == 0 {
		c.LineItems = 150
	}
	if len(c.QuerySweep) == 0 {
		c.QuerySweep = []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Seed == 0 {
		c.Seed = 9303
	}
	if c.OverlapPreds == 0 {
		c.OverlapPreds = 16
	}
	if c.ReferenceRequestNs == 0 {
		c.ReferenceRequestNs = 10e6
	}
}

// PSMix is one predicate mix's sweep (points reuse the P1 shape).
type PSMix struct {
	Name   string    `json:"name"`
	Points []P1Point `json:"points"`
}

// PSResult carries both mixes.
type PSResult struct {
	Config PSConfig `json:"config"`
	Mixes  []PSMix  `json:"mixes"`
}

// psOverlapQuery is query i of the overlap mix: a group-by count over
// one of OverlapPreds distinct bid_price thresholds. Thresholds span
// 6.0–9.0, the selective tail of the simulator's bid-price distribution
// (advisory prices are log-uniform in [0.5, 8] with ±15% model
// adjustment), so most events match no query and the measurement
// isolates dispatch cost rather than enqueue volume.
func psOverlapQuery(i, overlapPreds int) string {
	threshold := 6.0 + 3.0*float64(i%overlapPreds)/float64(overlapPreds)
	return fmt.Sprintf(
		`select bid.user_id, count(*) from bid where bid.bid_price > %.4f group by bid.user_id window 10s duration 1h`,
		threshold)
}

// psDistinctQuery is query i of the distinct mix: the same query shape,
// but every query's threshold differs in the sixth decimal, so no two
// predicates canonicalize onto the same DAG node (the bid_price field
// reference is still a shared subexpression — that much sharing is
// inherent to the design).
func psDistinctQuery(i, overlapPreds int) string {
	threshold := 6.0 + 3.0*float64(i%overlapPreds)/float64(overlapPreds) + float64(i)*1e-6
	return fmt.Sprintf(
		`select bid.user_id, count(*) from bid where bid.bid_price > %.6f group by bid.user_id window 10s duration 1h`,
		threshold)
}

// PSQueryScale runs both mixes over the sweep.
func PSQueryScale(cfg PSConfig) (*PSResult, error) {
	cfg.fillDefaults()
	res := &PSResult{Config: cfg}
	base := P1Config{
		Requests: cfg.Requests, LineItems: cfg.LineItems, Seed: cfg.Seed,
		ReferenceRequestNs: cfg.ReferenceRequestNs,
	}
	mixes := []struct {
		name string
		gen  func(i, overlapPreds int) string
	}{
		{"overlap", psOverlapQuery},
		{"distinct", psDistinctQuery},
	}
	for _, mix := range mixes {
		var baseline float64
		pts := make([]P1Point, 0, len(cfg.QuerySweep))
		for _, nq := range cfg.QuerySweep {
			queries := make([]string, nq)
			for q := 0; q < nq; q++ {
				queries[q] = mix.gen(q, cfg.OverlapPreds)
			}
			samples := make([]float64, 0, cfg.Reps)
			for rep := 0; rep < cfg.Reps; rep++ {
				ns, err := overheadMeasureOnce(base, queries)
				if err != nil {
					return nil, err
				}
				samples = append(samples, ns)
			}
			nsPerReq := median(samples)
			p := P1Point{Queries: nq, NsPerReq: nsPerReq}
			if nq == 0 {
				baseline = nsPerReq
			}
			if baseline > 0 {
				p.AddedNs = nsPerReq - baseline
				p.OverheadPct = p.AddedNs / baseline * 100
				p.SLOPct = p.AddedNs / cfg.ReferenceRequestNs * 100
			}
			pts = append(pts, p)
		}
		res.Mixes = append(res.Mixes, PSMix{Name: mix.name, Points: pts})
	}
	return res, nil
}

// Table renders both mixes.
func (r *PSResult) Table() *Table {
	t := &Table{
		ID:      "PS",
		Title:   "Host overhead at query scale: shared vs distinct predicates",
		Columns: []string{"mix", "active queries", "ns/request", "added ns", "vs simulated request", "vs production request budget"},
	}
	for _, m := range r.Mixes {
		for _, p := range m.Points {
			t.AddRow(m.Name, fmtI(int64(p.Queries)), fmtF(p.NsPerReq), fmtF(p.AddedNs),
				fmt.Sprintf("%+.1f%%", p.OverheadPct), fmt.Sprintf("%+.3f%%", p.SLOPct))
		}
	}
	t.Notes = append(t.Notes,
		"overlap mix: queries cycle a small set of distinct predicates; canonicalization interns duplicates onto one shared DAG node, so added-ns should grow sublinearly with query count",
		"distinct mix: every predicate constant is unique (no node sharing); this bounds the adversarial case and guards against the shared index regressing the no-sharing workload",
		fmt.Sprintf("median of %d reps per point", r.Config.Reps))
	return t
}
