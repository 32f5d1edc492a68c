package experiments

import "testing"

func TestE2ExchangeValidation(t *testing.T) {
	res, err := E2ExchangeValidation()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approx {
		t.Error("sampled query should be approximate")
	}
	// Established exchanges flow on both sides of the boundary.
	for _, ex := range []string{"1", "2", "3"} {
		before, after := res.CountBeforeAfter(ex)
		if before == 0 || after == 0 {
			t.Errorf("exchange %s: before=%d after=%d, want traffic throughout", ex, before, after)
		}
	}
	// The newcomer: silent before, ramping after — the paper's healthy
	// integration signal.
	before4, after4 := res.CountBeforeAfter("4")
	if before4 != 0 {
		t.Errorf("exchange 4 impressions before onboarding = %d, want 0", before4)
	}
	if after4 == 0 {
		t.Error("exchange 4 shows no impressions after onboarding")
	}
	// Weight 2 vs 1 each: the newcomer should carry a large share.
	_, after1 := res.CountBeforeAfter("1")
	if after4 < after1 {
		t.Errorf("exchange 4 post-onboarding volume (%d) below exchange 1 (%d) despite double weight", after4, after1)
	}
	if tab := res.Table(); len(tab.Rows) < 4 {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
}
