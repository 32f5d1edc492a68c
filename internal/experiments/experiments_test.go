package experiments

import (
	"testing"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/transport"
	"scrub/internal/workload"
)

// TestCheckRejects pins that check is not vacuous: windows Scrub did not
// emit, a row it did not compute, and a sampled query are errors.
func TestCheckRejects(t *testing.T) {
	s, err := newSim(adplatform.Config{
		NumBidServers: 2, NumAdServers: 1, NumPresentationServers: 1,
		LineItems: adplatform.GenerateLineItems(10, 1),
	}, workload.Spec{Seed: 1, NumUsers: 50, MeanPageViewsPerMin: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wins, _, err := s.run([]string{p5Query}, 30*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins[0]) < 2 || len(wins[0][0].Rows) == 0 {
		t.Fatalf("degenerate run: %d windows", len(wins[0]))
	}
	if _, err := s.check(p5Query, wins[0]); err != nil {
		t.Fatal(err)
	}
	lost := append([]transport.ResultWindow(nil), wins[0]...)
	lost[0].Rows = lost[0].Rows[1:]
	for name, ws := range map[string][]transport.ResultWindow{
		"a window short": wins[0][1:],
		"a row short":    lost,
	} {
		if _, err := s.check(p5Query, ws); err == nil {
			t.Errorf("%s passed the check", name)
		}
	}
	if _, err := s.check(p5Query+` sample events 50%`, wins[0]); err == nil {
		t.Error("a sampled query passed the check")
	}
}
