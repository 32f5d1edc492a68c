package coord

import (
	"reflect"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// TestShardStartRoundTrip: the plan a shard process rebuilds from a
// ShardStart — or a standby from its replicated registration — is the
// plan the coordinator compiled, field for field, down to whether a
// lateness was declared, which selects how its windows close. One text
// per differential-harness family, and the clauses a start once repeated
// beside its text (sampling, replay, budget), each with and without a
// declared lateness.
func TestShardStartRoundTrip(t *testing.T) {
	for _, src := range []string{
		`select bid_price, country from bid where bid_price > 2.5 order by 1 desc limit 5 window 5s`,
		`select country, count(*), avg(bid_price) from bid where user_id < 120 and exchange_id != 3 group by country having count(*) >= 2 order by 2 desc limit 4 window 10s`,
		`select count(*), sum(bid_price), min(user_id), max(bid_price) from bid where country = 'us' window 8s`,
		`select exchange_id, top_k(country, 3) from bid group by exchange_id window 5s`,
		`select count_distinct(user_id), count(*) from bid where exchange_id = 2 window 10s`,
		`select exclusion.reason, count(*) from bid, exclusion where exclusion.reason != 'budget' group by exclusion.reason window 5s`,
		`select count(*), sum(bid_price) from bid window 10s sample events 25%`,
		`select count(*) from bid window 10s replay 30s`,
		`select count(*) from bid window 10s budget cpu 1.5%`,
		`select bid.exchange_id, sum(bid.bid_price), count(*) from bid, exclusion where bid.user_id > exclusion.line_item_id group by bid.exchange_id window 5s`,
		`select count(*), sum(bid_price) from bid window 10s slide 5s`,
	} {
		q, err := ql.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		qp, err := ql.Analyze(q, adCatalog())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, lateness := range []time.Duration{0, 3 * time.Second} {
			p := central.FromPlan(qp, 7, 100*sec, 200*sec, 40, 10)
			p.Text = src
			p.Lateness = lateness
			coordRT, err := central.CompileQuery(p)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}

			msg := ShardStartFromPlan(coordRT.Plan())
			// Seq and Fence are the RPC's, not the plan's; every other field
			// must be set here, or a field the mapping forgets would compare
			// equal at zero on both sides below.
			v := reflect.ValueOf(msg)
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if name != "Seq" && name != "Fence" && !(name == "LatenessNanos" && lateness == 0) && v.Field(i).IsZero() {
					t.Errorf("ShardStartFromPlan leaves %s zero for a plan that sets it", name)
				}
			}
			wire, err := transport.AppendEncode(nil, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := transport.Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			back, err := PlanFromShardStart(got.(transport.ShardStart), adCatalog())
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			shardRT, err := central.CompileQuery(back)
			if err != nil {
				t.Fatalf("%s: shard: %v", src, err)
			}
			if !reflect.DeepEqual(shardRT.Plan(), coordRT.Plan()) {
				t.Errorf("%s, lateness %v: the shard's plan is not the coordinator's:\n shard %+v\n coord %+v",
					src, lateness, *shardRT.Plan(), *coordRT.Plan())
			}
		}
	}
}
