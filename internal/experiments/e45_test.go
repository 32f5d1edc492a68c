package experiments

import "testing"

func TestE4Exclusions(t *testing.T) {
	res, err := E4Exclusions()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJoined == 0 {
		t.Fatal("join produced no rows")
	}
	if len(res.ReasonCounts) < 2 {
		t.Errorf("reason variety too low: %v", res.ReasonCounts)
	}
	// Geo/exchange/segment filtering dominates a fresh portfolio.
	var targeting int64
	for _, reason := range []string{"geo_mismatch", "exchange_mismatch", "segment_mismatch"} {
		targeting += res.ReasonCounts[reason]
	}
	if targeting == 0 {
		t.Errorf("no targeting exclusions: %v", res.ReasonCounts)
	}
	// The scalability contrast: raw ad-server event volume dwarfs joined
	// output rows.
	if res.ExclusionEventsLogged < uint64(res.TotalJoined) {
		t.Errorf("exclusion events %d < joined rows %d?", res.ExclusionEventsLogged, res.TotalJoined)
	}
	if tab := res.Table(); len(tab.Rows) == 0 {
		t.Error("empty table")
	}
}

func TestE5Cannibalization(t *testing.T) {
	res, err := E5Cannibalization()
	if err != nil {
		t.Fatal(err)
	}
	// The complaint reproduced: λ participates in every auction but
	// never wins.
	before := res.Before
	if before.LambdaWins != 0 {
		t.Errorf("λ wins = %d at $%.2f, want 0 (cannibalized)", before.LambdaWins, before.LambdaPrice)
	}
	if len(before.Winners) == 0 {
		t.Fatal("no winners observed")
	}
	// The diagnosis: every winner's average price sits above λ's band.
	if before.MinWinnerAvg <= before.LambdaBandHigh {
		t.Errorf("min winner avg %.3f should exceed λ's band top %.3f",
			before.MinWinnerAvg, before.LambdaBandHigh)
	}
	// The remediation: with λ's advisory price raised above the rivals',
	// λ starts winning.
	if res.After.LambdaPrice <= 3.0 || res.After.LambdaWins == 0 {
		t.Errorf("at $%.2f λ wins %d auctions, want some", res.After.LambdaPrice, res.After.LambdaWins)
	}
	if tab := res.Table(); len(tab.Rows) < 4 {
		t.Error("table too small")
	}
}
