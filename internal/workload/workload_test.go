package workload

import (
	"testing"
	"time"

	"scrub/internal/adplatform"
)

func TestSpecValidation(t *testing.T) {
	if _, err := NewGenerator(Spec{}, time.Now()); err == nil {
		t.Error("empty spec should fail")
	}
	if _, err := NewGenerator(Spec{NumUsers: 1, Exchanges: []Exchange{{ID: 1, Weight: -1}}}, time.Now()); err == nil {
		t.Error("negative exchange weight should fail")
	}
	if _, err := NewGenerator(Spec{Bots: []BotSpec{{UserID: 1}}}, time.Now()); err == nil {
		t.Error("bot without batch/period should fail")
	}
}

func TestDeterminism(t *testing.T) {
	spec := Spec{Seed: 7, NumUsers: 100, MeanPageViewsPerMin: 10}
	start := time.Unix(1000, 0)
	collect := func() []adplatform.BidRequest {
		g, err := NewGenerator(spec, start)
		if err != nil {
			t.Fatal(err)
		}
		var out []adplatform.BidRequest
		g.Run(time.Minute, func(r adplatform.BidRequest) { out = append(out, r) })
		return out
	}
	a, b := collect(), collect()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lens %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestVirtualTimeOrderingAndBounds(t *testing.T) {
	g, err := NewGenerator(Spec{Seed: 1, NumUsers: 200, MeanPageViewsPerMin: 6}, time.Unix(5000, 0))
	if err != nil {
		t.Fatal(err)
	}
	startN := time.Unix(5000, 0).UnixNano()
	endN := time.Unix(5000, 0).Add(2 * time.Minute).UnixNano()
	prevPageTs := int64(0)
	n := g.Run(2*time.Minute, func(r adplatform.BidRequest) {
		if r.TimeNanos < startN || r.TimeNanos >= endN+int64(10*time.Millisecond) {
			t.Fatalf("ts %d outside run bounds", r.TimeNanos)
		}
		// Page views are non-decreasing (slots within a view advance by
		// only milliseconds).
		if r.TimeNanos+int64(50*time.Millisecond) < prevPageTs {
			t.Fatalf("time went backwards: %d after %d", r.TimeNanos, prevPageTs)
		}
		if r.TimeNanos > prevPageTs {
			prevPageTs = r.TimeNanos
		}
		if r.RequestID == 0 || r.UserID < 0 || r.Country == "" || r.City == "" {
			t.Fatalf("malformed request %+v", r)
		}
	})
	// 200 users × 6 views/min × 2 min × ~2 slots ≈ 4800 requests.
	if n < 2000 || n > 9000 {
		t.Errorf("generated %d requests, want ≈4800", n)
	}
}

func TestHumanRequestRatesAreMostlyLow(t *testing.T) {
	// The spam case study's baseline: most users issue a single bid
	// request batch per window; the per-user per-10s count distribution
	// decays fast.
	g, err := NewGenerator(Spec{Seed: 3, NumUsers: 2000, MeanPageViewsPerMin: 1}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	perUserWindow := map[[2]int64]int{}
	g.Run(time.Minute, func(r adplatform.BidRequest) {
		w := r.TimeNanos / int64(10*time.Second)
		perUserWindow[[2]int64{r.UserID, w}]++
	})
	low, high := 0, 0
	for _, c := range perUserWindow {
		if c <= 3 {
			low++
		}
		if c > 20 {
			high++
		}
	}
	if low == 0 {
		t.Fatal("no low-rate user-windows at all")
	}
	if float64(high) > 0.02*float64(len(perUserWindow)) {
		t.Errorf("too many heavy user-windows: %d of %d", high, len(perUserWindow))
	}
}

func TestBotsDominateTheirWindows(t *testing.T) {
	g, err := NewGenerator(Spec{
		Seed: 4, NumUsers: 500, MeanPageViewsPerMin: 1,
		Bots: []BotSpec{
			{UserID: 666666, BatchSize: 500, Period: 10 * time.Second},
			{UserID: 777777, BatchSize: 300, Period: 15 * time.Second, StartAt: 5 * time.Second},
		},
	}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	g.Run(time.Minute, func(r adplatform.BidRequest) { counts[r.UserID]++ })
	if counts[666666] != 6*500 {
		t.Errorf("bot 666666 issued %d, want 3000", counts[666666])
	}
	if counts[777777] != 4*300 {
		t.Errorf("bot 777777 issued %d, want 1200", counts[777777])
	}
	// Bots vastly outpace any human.
	maxHuman := 0
	for u, c := range counts {
		if u != 666666 && u != 777777 && c > maxHuman {
			maxHuman = c
		}
	}
	if maxHuman >= 500 {
		t.Errorf("a human issued %d requests — population too hot", maxHuman)
	}
}

func TestExchangeOnboarding(t *testing.T) {
	// Exchange 4 enables at t=30s: no traffic before, plenty after.
	g, err := NewGenerator(Spec{
		Seed: 5, NumUsers: 1000, MeanPageViewsPerMin: 4,
		Exchanges: []Exchange{
			{ID: 1, Weight: 1},
			{ID: 2, Weight: 1},
			{ID: 3, Weight: 1},
			{ID: 4, Weight: 3, EnableAt: 30 * time.Second},
		},
	}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	before := map[int64]int{}
	after := map[int64]int{}
	g.Run(time.Minute, func(r adplatform.BidRequest) {
		if r.TimeNanos < int64(30*time.Second) {
			before[r.ExchangeID]++
		} else {
			after[r.ExchangeID]++
		}
	})
	if before[4] != 0 {
		t.Errorf("exchange 4 saw %d requests before enabling", before[4])
	}
	if after[4] == 0 {
		t.Error("exchange 4 saw no traffic after enabling")
	}
	// Weight 3 vs 1+1+1: exchange 4 should carry about half of post-
	// enable traffic.
	total := after[1] + after[2] + after[3] + after[4]
	share := float64(after[4]) / float64(total)
	if share < 0.35 || share > 0.65 {
		t.Errorf("exchange 4 share = %.2f, want ≈0.5", share)
	}
}

func TestUsersAndProfiles(t *testing.T) {
	g, err := NewGenerator(Spec{Seed: 6, NumUsers: 50}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	store := adplatform.NewProfileStore()
	g.InstallProfiles(store)
	// Ids 0–49 each get 1–4 segments from the universe; none outside.
	for id := int64(-1); id <= 50; id++ {
		segs := store.Get(id).Segments
		if id < 0 || id >= 50 {
			if len(segs) != 0 {
				t.Errorf("user id %d outside range installed", id)
			}
			continue
		}
		if len(segs) == 0 || len(segs) > 4 {
			t.Errorf("user %d has %d segments", id, len(segs))
		}
		for _, s := range segs {
			if s < 1 || s > numSegments {
				t.Errorf("segment %d out of universe", s)
			}
		}
	}
}
