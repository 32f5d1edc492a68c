package experiments

import (
	"strings"
	"testing"
)

func TestE1SpamDetection(t *testing.T) {
	res, err := E1SpamDetection()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's shape: both bots detected, and low-rate user-windows
	// dominate the distribution.
	if len(res.Detected) != 2 || res.Detected[0] != "900001" || res.Detected[1] != "900002" {
		t.Errorf("detected = %v, want the two bots", res.Detected)
	}
	var low, high int64
	for k, n := range res.Histogram {
		if k <= 5 {
			low += n
		}
		if k > res.Threshold {
			high += n
		}
	}
	if low == 0 || high == 0 {
		t.Fatalf("degenerate histogram: low=%d high=%d", low, high)
	}
	if low < 20*high {
		t.Errorf("human windows (%d) should dwarf bot windows (%d)", low, high)
	}
	if res.Windows < 5 {
		t.Errorf("only %d windows emitted", res.Windows)
	}
	// Counts decay: bucket(1) ≥ bucket(4).
	if res.Histogram[1] < res.Histogram[4] {
		t.Errorf("distribution not decaying: h[1]=%d h[4]=%d", res.Histogram[1], res.Histogram[4])
	}

	tab := res.Table()
	if tab.ID != "E1" || len(tab.Rows) == 0 {
		t.Error("table malformed")
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	if !strings.Contains(sb.String(), "bots") {
		t.Error("rendered table missing bot bucket")
	}
}
