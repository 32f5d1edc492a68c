// Package difftest is the seeded differential-simulation harness that
// cross-checks the in-process cluster at one shard (central.Engine) and at
// several, the multi-process fabric, and the exact oracle
// (internal/oracle) over randomly generated queries and event streams.
//
// Everything is derived deterministically from one int64 seed: the query
// text (drawn from the ql grammar), the event streams (hosts, request-id
// join structure, bounded out-of-order arrival), the batch interleaving,
// the tick schedule, and any chaos (host death, duplicated batches, late
// redelivery). A failure therefore reproduces from its seed alone; every
// contract violation prints the exact `go test` replay command.
package difftest

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"scrub/internal/event"
)

// catalog returns the fixed simulation catalog: an ad-serving "bid"
// stream and a lower-rate "exclusion" stream sharing request ids, the
// paper's running example.
func catalog() *event.Catalog {
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "exchange_id", Kind: event.KindInt},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
		event.FieldDef{Name: "country", Kind: event.KindString},
	))
	cat.MustRegister(event.MustSchema("exclusion",
		event.FieldDef{Name: "line_item_id", Kind: event.KindInt},
		event.FieldDef{Name: "reason", Kind: event.KindString},
	))
	return cat
}

var countries = []string{"us", "uk", "de", "fr", "jp", "br"}
var reasons = []string{"fraud", "viewability", "budget", "blocklist"}

// Query families. Each family exercises a different slice of the central
// evaluator; deriveConfig cycles through them so a seed sweep covers all.
const (
	famRaw       = iota // selection/projection, ORDER BY, LIMIT — no aggregates
	famGrouped          // GROUP BY with standard aggregates, HAVING
	famUngrouped        // ungrouped COUNT/SUM/AVG/MIN/MAX
	famTopK             // TOP_K over a small universe (exact: universe < capacity)
	famDistinct         // COUNT_DISTINCT — checked by sketch guarantee, never row-exact
	famJoin             // two-type request-id equi-join
	numFamilies
)

func famName(f int) string {
	return [...]string{"raw", "grouped", "ungrouped", "topk", "distinct", "join"}[f]
}

func pick(rng *rand.Rand, opts ...string) string { return opts[rng.Intn(len(opts))] }

// windowShapes are the main sweep's windows, every slide 2 s or more;
// shortWindowShapes the default-lateness sweep's, all shorter than 2 s.
var windowShapes = []string{
	"window 5s", "window 10s", "window 8s",
	"window 4s slide 2s", "window 6s slide 3s", "window 10s slide 5s",
}

var shortWindowShapes = []string{
	"window 250ms", "window 500ms", "window 1s",
	"window 1s slide 250ms", "window 1500ms slide 500ms", "window 600ms slide 200ms",
}

// bidPred picks a WHERE clause over the bid stream (the analyzer decides
// host-vs-central placement; the harness honors whatever it picks).
func bidPred(rng *rand.Rand) string {
	return pick(rng,
		"",
		" where bid_price > 2.5",
		" where exchange_id = 2",
		" where user_id < 120 and exchange_id != 3",
		" where country = 'us'",
		" where bid_price >= 1.0 and bid_price < 4.0",
	)
}

// genQuery draws one query of the given family from the ql grammar, its
// window from shapes.
func genQuery(rng *rand.Rand, fam int, shapes []string) string {
	switch fam {
	case famRaw:
		all := []string{"user_id", "exchange_id", "bid_price", "country"}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		cols := all[:1+rng.Intn(len(all))]
		sort.Strings(cols)
		sel := ""
		for i, c := range cols {
			if i > 0 {
				sel += ", "
			}
			sel += c
		}
		q := "select " + sel + " from bid" + bidPred(rng)
		if rng.Intn(2) == 0 {
			q += fmt.Sprintf(" order by %d", 1+rng.Intn(len(cols)))
			if rng.Intn(2) == 0 {
				q += " desc"
			}
		}
		if rng.Intn(2) == 0 {
			q += fmt.Sprintf(" limit %d", []int{3, 5, 10}[rng.Intn(3)])
		}
		return q + " " + pick(rng, shapes...)

	case famGrouped:
		key := pick(rng, "exchange_id", "country", "user_id")
		aggPool := []string{
			"count(*)", "count(user_id)", "sum(bid_price)", "avg(bid_price)",
			"min(user_id)", "max(bid_price)", "min(bid_price)", "max(user_id)",
		}
		rng.Shuffle(len(aggPool), func(i, j int) { aggPool[i], aggPool[j] = aggPool[j], aggPool[i] })
		n := 1 + rng.Intn(3)
		sel := key
		for _, a := range aggPool[:n] {
			sel += ", " + a
		}
		q := "select " + sel + " from bid" + bidPred(rng) + " group by " + key
		if rng.Intn(3) == 0 {
			q += fmt.Sprintf(" having count(*) >= %d", 1+rng.Intn(3))
		}
		if rng.Intn(2) == 0 {
			q += fmt.Sprintf(" order by %d desc", 1+rng.Intn(n+1))
			if rng.Intn(2) == 0 {
				q += fmt.Sprintf(" limit %d", 2+rng.Intn(5))
			}
		}
		return q + " " + pick(rng, shapes...)

	case famUngrouped:
		aggPool := []string{
			"count(*)", "count(bid_price)", "sum(bid_price)", "avg(bid_price)",
			"min(user_id)", "max(user_id)", "min(bid_price)", "max(bid_price)",
		}
		rng.Shuffle(len(aggPool), func(i, j int) { aggPool[i], aggPool[j] = aggPool[j], aggPool[i] })
		n := 2 + rng.Intn(3)
		sel := ""
		for i, a := range aggPool[:n] {
			if i > 0 {
				sel += ", "
			}
			sel += a
		}
		return "select " + sel + " from bid" + bidPred(rng) + " " + pick(rng, shapes...)

	case famTopK:
		k := []int{2, 3, 5}[rng.Intn(3)]
		// The country universe (6 values) is far below the SpaceSaving
		// capacity (max(8k, 64)), so counts are exact and the rendered
		// list must match the oracle's exact top-k row-for-row.
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("select top_k(country, %d) from bid%s %s", k, bidPred(rng), pick(rng, shapes...))
		}
		return fmt.Sprintf("select exchange_id, top_k(country, %d) from bid%s group by exchange_id %s",
			k, bidPred(rng), pick(rng, shapes...))

	case famDistinct:
		if rng.Intn(2) == 0 {
			return "select count_distinct(user_id) from bid" + bidPred(rng) + " " + pick(rng, shapes...)
		}
		return "select count_distinct(user_id), count(*) from bid" + bidPred(rng) + " " + pick(rng, shapes...)

	case famJoin:
		pred := pick(rng,
			"",
			" where bid.exchange_id = 2",
			" where exclusion.reason != 'budget'",
			" where bid.user_id > exclusion.line_item_id",
		)
		switch rng.Intn(3) {
		case 0:
			return "select bid.user_id, exclusion.reason from bid, exclusion" + pred + " " + pick(rng, shapes...)
		case 1:
			return "select exclusion.reason, count(*) from bid, exclusion" + pred +
				" group by exclusion.reason " + pick(rng, shapes...)
		default:
			return "select bid.exchange_id, sum(bid.bid_price), count(*) from bid, exclusion" + pred +
				" group by bid.exchange_id " + pick(rng, shapes...)
		}
	}
	panic("unknown family")
}

// genEvent is one simulated event with its full field set (the host
// pipeline projects it down to the plan's columns).
type genEvent struct {
	host    string
	typeIdx int // 0 = bid, 1 = exclusion
	req     uint64
	ts      int64
	fields  map[string]event.Value
}

// genEvents builds per-host event timelines. Within each (host, type)
// stream, timestamps never move backwards by more than slack/2, so in
// non-chaos runs nothing can be dropped as late: the watermark is the
// minimum stream position, windows stay open for `slack` behind it, and
// the simulator registers every stream with the engines before real
// volume flows (see the registration pass in Run).
// Join families also emit exclusion events sharing recent bid request
// ids — sometimes on a different host, the cross-machine join the paper
// targets. The whole timeline scales with the slack — gaps, offsets and
// disorder alike are those of a 2 s slack times slack/2s — so a short
// window sees as many events and as much disorder per slide as a long one.
func genEvents(rng *rand.Rand, fam int, hosts int, slack time.Duration) []genEvent {
	var out []genEvent
	nextReq := uint64(1)
	jitter := int64(slack) / 2
	ms := int64(slack) / 2000 // one millisecond at a 2 s slack

	type hostState struct{ name string }
	var hs []hostState
	for h := 0; h < hosts; h++ {
		hs = append(hs, hostState{name: fmt.Sprintf("host-%d", h)})
	}

	var recentReqs []uint64
	for h := range hs {
		n := 60 + rng.Intn(120)
		ts := int64(rng.Intn(3)) * 1000 * ms
		var evs []genEvent
		for i := 0; i < n; i++ {
			ts += int64(rng.Intn(800)+1) * ms
			req := nextReq
			nextReq++
			recentReqs = append(recentReqs, req)
			evs = append(evs, genEvent{
				host: hs[h].name, typeIdx: 0, req: req, ts: ts,
				fields: map[string]event.Value{
					"user_id":     event.Int(int64(rng.Intn(200))),
					"exchange_id": event.Int(int64(1 + rng.Intn(5))),
					"bid_price":   event.Float(float64(rng.Intn(1000)) / 100),
					"country":     event.Str(countries[rng.Intn(len(countries))]),
				},
			})
		}
		out = append(out, evs...)
	}

	if fam == famJoin {
		// Exclusions reference existing bid requests at ~40% rate, with a
		// few orphans; each lands near (but not exactly at) the bid's
		// time, often on another host.
		for _, req := range recentReqs {
			if rng.Float64() > 0.4 {
				continue
			}
			var bidTs int64
			for _, e := range out {
				if e.req == req {
					bidTs = e.ts
					break
				}
			}
			host := hs[rng.Intn(len(hs))].name
			out = append(out, genEvent{
				host: host, typeIdx: 1, req: req,
				ts: bidTs + int64(rng.Intn(1500)-400)*ms,
				fields: map[string]event.Value{
					"line_item_id": event.Int(int64(rng.Intn(300))),
					"reason":       event.Str(reasons[rng.Intn(len(reasons))]),
				},
			})
		}
		// A few orphan exclusions with no bid partner.
		for i := 0; i < 5+rng.Intn(10); i++ {
			out = append(out, genEvent{
				host: hs[rng.Intn(len(hs))].name, typeIdx: 1, req: nextReq,
				ts: int64(rng.Intn(30000)) * ms,
				fields: map[string]event.Value{
					"line_item_id": event.Int(int64(rng.Intn(300))),
					"reason":       event.Str(reasons[rng.Intn(len(reasons))]),
				},
			})
			nextReq++
		}
	}

	// Per-(host,type) bounded disorder: sort each stream by time, then
	// swap adjacent events whose gap is under slack/2. Ordering across
	// streams is the interleaver's business.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.host != b.host {
			return a.host < b.host
		}
		if a.typeIdx != b.typeIdx {
			return a.typeIdx < b.typeIdx
		}
		return a.ts < b.ts
	})
	for i := 1; i < len(out); i++ {
		a, b := &out[i-1], &out[i]
		if a.host == b.host && a.typeIdx == b.typeIdx &&
			b.ts-a.ts < jitter && rng.Intn(3) == 0 {
			out[i-1], out[i] = out[i], out[i-1]
		}
	}
	return out
}

// negative timestamps never occur by construction; events start at t≥0.
