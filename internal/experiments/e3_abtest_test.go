package experiments

import "testing"

func TestE3ABTesting(t *testing.T) {
	res, err := E3ABTesting()
	if err != nil {
		t.Fatal(err)
	}
	if res.A.Impressions == 0 || res.B.Impressions == 0 {
		t.Fatalf("no impressions measured: %+v", res)
	}
	if res.A.Clicks == 0 || res.B.Clicks == 0 {
		t.Fatalf("no clicks measured: A=%d B=%d (imps %d/%d)", res.A.Clicks, res.B.Clicks, res.A.Impressions, res.B.Impressions)
	}
	// Figure 15's shape: CTR(B) > CTR(A), CPM within ~20%.
	if res.B.CTR <= res.A.CTR {
		t.Errorf("CTR B (%.4f) should beat CTR A (%.4f)", res.B.CTR, res.A.CTR)
	}
	cpmRatio := res.B.CPM / res.A.CPM
	if cpmRatio < 0.8 || cpmRatio > 1.25 {
		t.Errorf("CPM ratio B/A = %.2f, want ≈1 (paper: cost held constant)", cpmRatio)
	}
	// CPM sanity: 1000×avg(cost); cost = price×0.85, prices around $2.
	if res.A.CPM < 500 || res.A.CPM > 4000 {
		t.Errorf("CPM A = %v, implausible", res.A.CPM)
	}
	if tab := res.Table(); len(tab.Rows) != 2 {
		t.Error("table should have one row per model")
	}
}
