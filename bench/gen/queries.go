package gen

import (
	"fmt"
	"strconv"

	"scrub/internal/event"
)

// HostQuery is one query of a host workload: its ScrubQL text and an
// independent reference predicate over a bid event's values (nil matches
// everything). The reference is written directly in Go, not derived from
// the query text through the system's own parser and evaluators, so the
// correctness gate compares two implementations.
type HostQuery struct {
	Name  string
	Text  string
	Match func(vals []event.Value) bool
}

// pred is a conjunction the generator can render both ways.
type pred struct {
	text  string
	match func(vals []event.Value) bool
}

func intAt(vals []event.Value, i int) int64 {
	n, _ := vals[i].AsInt()
	return n
}

func floatAt(vals []event.Value, i int) float64 {
	f, _ := vals[i].AsFloat()
	return f
}

func strAt(vals []event.Value, i int) string {
	s, _ := vals[i].AsStr()
	return s
}

func campaignRange(lo int64) pred {
	hi := lo + 16
	return pred{
		text:  fmt.Sprintf("bid.campaign_id >= %d and bid.campaign_id < %d", lo, hi),
		match: func(v []event.Value) bool { c := intAt(v, fCampaign); return c >= lo && c < hi },
	}
}

func priceRange(a float64) pred {
	b := a + 0.15
	ff := func(x float64) string {
		s := strconv.FormatFloat(x, 'f', -1, 64)
		return s
	}
	return pred{
		text:  fmt.Sprintf("bid.bid_price > %s and bid.bid_price <= %s", ff(a), ff(b)),
		match: func(v []event.Value) bool { p := floatAt(v, fPrice); return p > a && p <= b },
	}
}

func exchangeLineItems(ex, lo int64) pred {
	hi := lo + 24
	return pred{
		text: fmt.Sprintf("bid.exchange_id = %d and bid.line_item_id >= %d and bid.line_item_id < %d", ex, lo, hi),
		match: func(v []event.Value) bool {
			l := intAt(v, fLineItem)
			return intAt(v, fExchange) == ex && l >= lo && l < hi
		},
	}
}

func userResidue(r int64) pred {
	return pred{
		text:  fmt.Sprintf("bid.user_id %% 64 = %d", r),
		match: func(v []event.Value) bool { return intAt(v, fUser)%64 == r },
	}
}

func countryCampaign(country string, r int64) pred {
	return pred{
		text: fmt.Sprintf("bid.country = %q and bid.campaign_id %% 4 = %d", country, r),
		match: func(v []event.Value) bool {
			return strAt(v, fCountry) == country && intAt(v, fCampaign)%4 == r
		},
	}
}

// fanoutShapes are the eight query shapes troubleshooters run
// concurrently (the P1 sweep's templates), each with a predicate slot.
var fanoutShapes = []string{
	"select bid.user_id, count(*) from bid where %s group by bid.user_id",
	"select count(*) from bid where %s",
	"select avg(bid.bid_price) from bid where %s",
	"select bid.exchange_id, count(*) from bid where %s group by bid.exchange_id",
	"select count_distinct(bid.user_id) from bid where %s",
	"select max(bid.bid_price), min(bid.bid_price) from bid where %s",
	"select bid.country, count(*) from bid where %s group by bid.country",
	"select top_k(bid.user_id, 10) from bid where %s",
}

const hostQuerySuffix = " window 10s duration 1h"

// FanoutQueries returns the 64 queries of host-fanout: 8 shapes × 8
// predicate variants. Variants 0–3 use four predicates shared by every
// shape (32 queries, 4 distinct predicates — the shared query index
// evaluates each once per event); variants 4–7 give every query a
// predicate of its own (32 distinct). Each predicate selects about 1/64 of
// the traffic, so about one tuple ships per logged event in total.
func FanoutQueries() []HostQuery {
	shared := []pred{
		campaignRange(0),
		priceRange(2.5),
		exchangeLineItems(3, 0),
		countryCampaign("BR", 1),
	}
	var out []HostQuery
	for s, shape := range fanoutShapes {
		for v := 0; v < 8; v++ {
			var p pred
			if v < 4 {
				p = shared[v]
			} else {
				k := int64(s*4 + v - 4)
				switch k % 4 {
				case 0:
					p = campaignRange(16 + 16*k)
				case 1:
					p = priceRange(3 + 0.2*float64(k))
				case 2:
					p = exchangeLineItems(k%Exchanges, (k*7)%120)
				default:
					p = userResidue(20 + k)
				}
			}
			out = append(out, HostQuery{
				Name:  fmt.Sprintf("s%dv%d", s, v),
				Text:  fmt.Sprintf(shape, p.text) + hostQuerySuffix,
				Match: p.match,
			})
		}
	}
	return out
}

// FirehoseQuery is host-firehose's single query: no predicate, four
// projected columns, every event ships.
func FirehoseQuery() HostQuery {
	return HostQuery{
		Name: "firehose",
		Text: "select bid.user_id, bid.exchange_id, bid.bid_price, bid.country from bid" + hostQuerySuffix,
	}
}

// CentralQuery is one query of the central workloads.
type CentralQuery struct {
	Name string
	Text string
	// CountCol is the result column holding count(*), or -1. Summed over
	// every emitted window it must equal CountRef for the fed rounds.
	CountCol int
}

// CentralWindow is the event-time window of the central queries.
const CentralWindow = "250ms"

// CentralQueries are the six concurrent queries of central-mixed and
// central-sharded, all over the same bid/exclusion streams. Names are the
// suffixes of the central.apply.<name>.ns_per_tuple layer metrics.
func CentralQueries() []CentralQuery {
	const tail = " window " + CentralWindow + " duration 1h"
	return []CentralQuery{
		{"groupby-hi", "select bid.user_id, count(*), avg(bid.bid_price) from bid group by bid.user_id" + tail, 1},
		{"groupby-lo", "select bid.exchange_id, count(*) from bid group by bid.exchange_id" + tail, 1},
		{"topk", "select top_k(bid.user_id, 10) from bid" + tail, -1},
		{"distinct", "select count_distinct(bid.user_id) from bid" + tail, -1},
		{"join", "select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason" + tail, 1},
		{"raw", "select bid.user_id, bid.bid_price from bid where bid.bid_price > 9" + tail, -1},
	}
}

// rawMatch is the reference for the raw query's host-side predicate.
func rawMatch(vals []event.Value) bool { return floatAt(vals, fPrice) > 9 }

// ClusterQuery is one query of cluster-wire.
type ClusterQuery struct {
	Name string
	Text string
	// Sampled marks a SAMPLE EVENTS query: its window counts are scaled
	// estimates, so the conservation check covers its host accounting only.
	Sampled  bool
	CountCol int
}

// ClusterWindow is the event-time window of the cluster-wire queries.
const ClusterWindow = "100ms"

// ClusterQueries are cluster-wire's four queries.
func ClusterQueries() []ClusterQuery {
	const tail = " window " + ClusterWindow + " duration 1h"
	return []ClusterQuery{
		{Name: "select", Sampled: true, CountCol: -1,
			Text: "select bid.user_id, bid.exchange_id, bid.bid_price from bid" + tail + " sample events 10%"},
		{Name: "groupby", CountCol: 1,
			Text: "select bid.user_id, count(*) from bid group by bid.user_id" + tail},
		{Name: "join", CountCol: 1,
			Text: "select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason" + tail},
		{Name: "topk", CountCol: -1,
			Text: "select top_k(bid.user_id, 10) from bid" + tail},
	}
}
