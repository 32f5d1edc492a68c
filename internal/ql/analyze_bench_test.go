package ql

import "testing"

// analyzeCorpus is what a troubleshooter admits: eight single-type texts
// in the shapes of the benchmark's host-fanout queries (a group-by, a
// count, aggregates, a distinct count and a top-k, each over a one- to
// three-term predicate) and two joins, one of them with a cross-type
// conjunct that stays central.
var analyzeCorpus = []string{
	"select bid.user_id, count(*) from bid where bid.campaign_id >= 0 and bid.campaign_id < 16 group by bid.user_id window 10s duration 1h",
	"select count(*) from bid where bid.bid_price > 2.5 and bid.bid_price <= 2.65 window 10s duration 1h",
	"select avg(bid.bid_price) from bid where bid.exchange_id = 3 and bid.user_id >= 0 and bid.user_id < 24 window 10s duration 1h",
	"select bid.exchange_id, count(*) from bid where bid.city = 'BR' and bid.campaign_id % 4 = 1 group by bid.exchange_id window 10s duration 1h",
	"select count_distinct(bid.user_id) from bid where bid.user_id % 64 = 5 window 10s duration 1h",
	"select max(bid.bid_price), min(bid.bid_price) from bid where bid.campaign_id >= 32 and bid.campaign_id < 48 window 10s duration 1h",
	"select bid.city, count(*) from bid where bid.bid_price > 3.1 and bid.bid_price <= 3.25 group by bid.city window 10s duration 1h",
	"select top_k(bid.user_id, 10) from bid where bid.exchange_id = 5 and bid.user_id >= 24 and bid.user_id < 48 window 10s duration 1h",
	"select bid.exchange_id, exclusion.reason, count(*) from bid, exclusion where bid.city = 'us' and exclusion.publisher_id > 3 and bid.campaign_id < exclusion.line_item_id group by bid.exchange_id, exclusion.reason window 10s",
	"select count(*), avg(bid.bid_price) from bid, exclusion where bid.request_id = exclusion.request_id and exclusion.reason = 'fraud' window 10s",
}

// BenchmarkAnalyze is Parse then Analyze of analyzeCorpus: one op admits
// all ten texts.
func BenchmarkAnalyze(b *testing.B) {
	cat := testCatalog()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range analyzeCorpus {
			q, err := Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Analyze(q, cat); err != nil {
				b.Fatal(err)
			}
		}
	}
}
