// Package difftest is the seeded differential-simulation harness that
// cross-checks the in-process cluster at one shard (central.Engine) and at
// several, the multi-process fabric, and the exact oracle
// (internal/oracle) over randomly generated queries and event streams.
//
// Every simulated host runs a real host.Agent; the batches the agents ship
// are what the executors see.
//
// Everything is derived deterministically from one int64 seed: the query
// text (drawn from the ql grammar) and its decoys, the event streams
// (hosts, request-id join structure, bounded out-of-order arrival), where
// each agent is flushed, the batch interleaving, the tick schedule, and
// any chaos (host death, duplicated batches, late redelivery). A failure
// therefore reproduces from its seed alone; every contract violation
// prints the exact `go test` replay command.
package difftest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/ql"
)

// gen is what a seed draws before any agent runs: the query under test and
// its plan, the hosts and which of them run the query, every event in Log
// order, and after which events the harness flushes the logging agent.
// rng is the seed's source, left where the delivery schedule draws next.
type gen struct {
	cfg        Config
	rng        *rand.Rand
	cat        *event.Catalog
	src        string
	qp         *ql.Plan
	plan       central.Plan
	hosts      []string
	shipping   map[string]bool // the hosts the query under test runs on
	events     []genEvent
	flushAfter []bool // per event: its run of 4–9 events on its host ends here
}

// generate draws a seed's query, hosts, events and flush points, in the
// order the seed's source has always drawn them.
func generate(cfg Config) (*gen, error) {
	g := &gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), cat: catalog()}
	rng := g.rng
	shapes := windowShapes
	if cfg.DefaultLateness {
		shapes = shortWindowShapes
	}
	g.src = genQuery(rng, cfg.Family, shapes)
	hosts := 2 + rng.Intn(3)
	sampledHosts := hosts
	if cfg.Mode == modeHostSample {
		sampledHosts = 1 + rng.Intn(hosts-1)
	}
	if cfg.Mode == modeSampled {
		g.src += []string{" sample events 50%", " sample events 25%"}[rng.Intn(2)]
	}
	var err error
	if g.qp, err = analyze(g.src, g.cat); err != nil {
		return g, err
	}
	// The query id comes from the seed, so the agents' query-seeded keep
	// tests keep different events on every seed; each seed owns a block of
	// eight ids, the query under test first and its decoys after it.
	g.plan = central.FromPlan(g.qp, 8*uint64(cfg.Seed)+1, 0, 0, hosts, sampledHosts)
	g.plan.Text = g.src
	// slack is how far behind the slowest stream a window closes; the
	// generator keeps each stream's disorder under half of it.
	slack := 2 * time.Second
	if cfg.DefaultLateness {
		slack = min(g.plan.Slide, slack)
	} else {
		g.plan.Lateness = slack
	}

	g.shipping = make(map[string]bool, hosts)
	for h := 0; h < hosts; h++ {
		g.hosts = append(g.hosts, fmt.Sprintf("host-%d", h))
		g.shipping[g.hosts[h]] = true
	}
	g.events = genEvents(rng, g.cat, cfg.Family, g.hosts, slack)
	if cfg.Mode == modeHostSample {
		perm := rng.Perm(hosts)
		clear(g.shipping)
		for _, i := range perm[:sampledHosts] {
			g.shipping[g.hosts[i]] = true
		}
	}
	// Each agent is flushed after a seed-drawn run of 4–9 of its own
	// events: fewer than a chunk holds, so every batch ships inside Flush
	// with deterministic counters and no chunk is ever dropped.
	runLeft := make(map[string]int, hosts)
	for _, h := range g.hosts {
		runLeft[h] = 4 + rng.Intn(6)
	}
	g.flushAfter = make([]bool, len(g.events))
	for i, e := range g.events {
		if runLeft[e.host]--; runLeft[e.host] == 0 {
			runLeft[e.host] = 4 + rng.Intn(6)
			g.flushAfter[i] = true
		}
	}
	return g, nil
}

func analyze(src string, cat *event.Catalog) (*ql.Plan, error) {
	q, err := ql.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("generated query does not parse: %v\n  query: %s", err, src)
	}
	qp, err := ql.Analyze(q, cat)
	if err != nil {
		return nil, fmt.Errorf("generated query does not analyze: %v\n  query: %s", err, src)
	}
	return qp, nil
}

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
		q := "select " + strings.Join(cols, ", ") + " from bid" + bidPred(rng)
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
		sel := strings.Join(append([]string{key}, aggPool[:n]...), ", ")
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
		return "select " + strings.Join(aggPool[:n], ", ") + " from bid" + bidPred(rng) + " " + pick(rng, shapes...)

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

// genEvent is one simulated event and the host that logs it.
type genEvent struct {
	host    string
	typeIdx int // 0 = bid, 1 = exclusion
	*event.Event
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
func genEvents(rng *rand.Rand, cat *event.Catalog, fam int, hosts []string, slack time.Duration) []genEvent {
	bid, _ := cat.Lookup("bid")
	exclusion, _ := cat.Lookup("exclusion")
	// Events are built directly, not through event.Builder, which reads a
	// zero time as "now": a simulated event may sit at (or before) t = 0.
	newExclusion := func(host string, req uint64, ts int64) genEvent {
		return genEvent{host: host, typeIdx: 1, Event: &event.Event{Schema: exclusion, RequestID: req, TimeNanos: ts,
			Values: []event.Value{event.Int(int64(rng.Intn(300))), event.Str(reasons[rng.Intn(len(reasons))])}}}
	}
	var out []genEvent
	nextReq := uint64(1)
	jitter := int64(slack) / 2
	ms := int64(slack) / 2000 // one millisecond at a 2 s slack

	for _, h := range hosts {
		n := 60 + rng.Intn(120)
		ts := int64(rng.Intn(3)) * 1000 * ms
		for i := 0; i < n; i++ {
			ts += int64(rng.Intn(800)+1) * ms
			out = append(out, genEvent{host: h, typeIdx: 0, Event: &event.Event{Schema: bid, RequestID: nextReq, TimeNanos: ts,
				Values: []event.Value{
					event.Int(int64(rng.Intn(200))),                // user_id
					event.Int(int64(1 + rng.Intn(5))),              // exchange_id
					event.Float(float64(rng.Intn(1000)) / 100),     // bid_price
					event.Str(countries[rng.Intn(len(countries))]), // country
				}}})
			nextReq++
		}
	}

	if fam == famJoin {
		// Exclusions reference existing bid requests at ~40% rate, with a
		// few orphans; each lands near (but not exactly at) the bid's
		// time, often on another host. The range covers the bids only.
		for _, b := range out {
			if rng.Float64() > 0.4 {
				continue
			}
			host := hosts[rng.Intn(len(hosts))]
			out = append(out, newExclusion(host, b.RequestID, b.TimeNanos+int64(rng.Intn(1500)-400)*ms))
		}
		// A few orphan exclusions with no bid partner.
		for i := 0; i < 5+rng.Intn(10); i++ {
			out = append(out, newExclusion(hosts[rng.Intn(len(hosts))], nextReq, int64(rng.Intn(30000))*ms))
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
		return a.TimeNanos < b.TimeNanos
	})
	for i := 1; i < len(out); i++ {
		a, b := &out[i-1], &out[i]
		if a.host == b.host && a.typeIdx == b.typeIdx &&
			b.TimeNanos-a.TimeNanos < jitter && rng.Intn(3) == 0 {
			out[i-1], out[i] = out[i], out[i-1]
		}
	}
	return out
}
