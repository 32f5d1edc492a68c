package experiments

import "testing"

func TestE6FrequencyCap(t *testing.T) {
	res, err := E6FrequencyCap()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OverServed) == 0 {
		t.Fatal("no over-served users found")
	}
	// Every over-served user must be one of the corrupted profiles — the
	// cap logic itself is correct (the paper's conclusion).
	for _, u := range res.OverServed {
		if !res.CorruptSet[u.UserID] {
			t.Errorf("healthy user %s over-served %d times: cap logic broken", u.UserID, u.Impressions)
		}
		// The evidence: the feed's clobbered counts are negative, and the
		// column shows them rather than a floor.
		if u.MaxServeCount >= 0 {
			t.Errorf("corrupt user %s: max serve_count seen %d, want the feed's negative count", u.UserID, u.MaxServeCount)
		}
	}
	// And the corrupted users are clearly anomalous versus the healthy
	// population.
	if res.HealthyMax > e6FrequencyCap {
		t.Errorf("healthy max %d exceeds cap %d", res.HealthyMax, e6FrequencyCap)
	}
	if res.OverServed[0].Impressions < 3 {
		t.Errorf("top over-served user only %d impressions — corruption not visible", res.OverServed[0].Impressions)
	}
	if tab := res.Table(); len(tab.Rows) != len(res.OverServed) {
		t.Error("table row mismatch")
	}
}
