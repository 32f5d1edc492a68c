package coord

import (
	"reflect"
	"testing"
	"time"

	"scrub/internal/central"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// TestShardStartRoundTrip: every Plan field a ShardStart carries survives
// plan → message → wire → plan, so a shard process, or a standby that
// resumes the query from its replicated registration, runs the plan the
// coordinator started — down to whether a lateness was declared, which
// selects how its windows close.
func TestShardStartRoundTrip(t *testing.T) {
	const src = `select count(*), sum(v) from ev window 10s slide 5s`
	q, err := ql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := ql.Analyze(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, lateness := range []time.Duration{0, 3 * time.Second} {
		p := central.FromPlan(qp, 7, 100*sec, 200*sec, 40, 10)
		p.Text = src
		p.Replay = 30 * time.Second
		p.SampleEvents = 0.25
		p.Confidence = 0.99
		p.MaxRawRows = 1000
		p.MaxJoinPending = 4096
		p.BudgetCPUPct = 1.5
		p.BudgetBytesPerSec = 1 << 20
		p.Lateness = lateness

		msg := ShardStartFromPlan(&p)
		// Seq and Fence are the RPC's, not the plan's; every other field must
		// be set here, or a field the mapping forgets would compare equal
		// at zero on both sides below.
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
		back, err := PlanFromShardStart(got.(transport.ShardStart), testCatalog())
		if err != nil {
			t.Fatal(err)
		}
		if again := ShardStartFromPlan(&back); !reflect.DeepEqual(again, msg) {
			t.Errorf("lateness %v: plan did not survive the trip:\n sent %+v\n  got %+v", lateness, msg, again)
		}
		if back.Lateness != lateness || back.Window != p.Window || back.Slide != p.Slide {
			t.Errorf("rebuilt plan closes differently: lateness %v window %v slide %v, want %v %v %v",
				back.Lateness, back.Window, back.Slide, lateness, p.Window, p.Slide)
		}
	}
}
