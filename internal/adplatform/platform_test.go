package adplatform

import (
	"testing"
	"time"

	"scrub/internal/host"
)

func simpleLineItem(id int64, price float64) *LineItem {
	li := &LineItem{ID: id, CampaignID: id / 10, AdvisoryPrice: price}
	li.SetBudget(1000)
	return li
}

func testPlatform(t *testing.T, items []*LineItem, mutate ...func(*Config)) *Platform {
	t.Helper()
	cfg := Config{
		NumBidServers: 2, NumAdServers: 2, NumPresentationServers: 2,
		LineItems:      items,
		EmitExclusions: true, EmitAuctions: true,
		Agent: host.Config{FlushInterval: 5 * time.Millisecond},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func req(id uint64, user int64, exchange int64, ts time.Time) BidRequest {
	return BidRequest{
		RequestID: id, ExchangeID: exchange, UserID: user,
		Country: "US", City: "san jose", PublisherID: 7,
		TimeNanos: ts.UnixNano(),
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := New(Config{NumBidServers: 1, NumAdServers: 1, NumPresentationServers: 1}); err == nil {
		t.Error("no line items should fail")
	}
}

func TestPipelineServesAds(t *testing.T) {
	items := []*LineItem{simpleLineItem(1, 2.0), simpleLineItem(2, 1.0)}
	p := testPlatform(t, items)
	now := time.Now()
	served, clicked := 0, 0
	for i := uint64(1); i <= 2000; i++ {
		resp, out, ok := p.Process(req(i, int64(i%50), 1, now))
		if !ok {
			t.Fatal("untargeted line items should always bid")
		}
		// Higher advisory price dominates: its whole price band sits
		// above the cheaper item's (the §8.5 cannibalization mechanic).
		if resp.LineItemID != 1 {
			t.Fatalf("winner = %d, want 1 (higher advisory price)", resp.LineItemID)
		}
		if out.Impression {
			served++
			if out.Cost <= 0 || out.Cost > resp.BidPrice {
				t.Fatalf("cost %v vs bid %v", out.Cost, resp.BidPrice)
			}
		}
		if out.Click {
			clicked++
		}
	}
	// ExternalWinRate defaults to 0.10: ~10% impressions.
	if served < 100 || served > 320 {
		t.Errorf("impressions = %d of 2000, want ≈200", served)
	}
	if clicked == 0 || clicked > served {
		t.Errorf("clicks = %d (impressions %d)", clicked, served)
	}
}

func TestFilteringReasons(t *testing.T) {
	geo := simpleLineItem(1, 1)
	geo.Countries = []string{"DE"}
	exch := simpleLineItem(2, 1)
	exch.Exchanges = []int64{9}
	seg := simpleLineItem(3, 1)
	seg.Segments = []int64{42}
	paused := simpleLineItem(4, 1)
	paused.Paused = true
	broke := simpleLineItem(5, 1)
	broke.SetBudget(0)
	open := simpleLineItem(6, 1)

	p := testPlatform(t, []*LineItem{geo, exch, seg, paused, broke, open})
	as := p.AdServers[0]
	r := req(1, 100, 1, time.Now())
	res := as.RunAuction(r)

	reasons := map[int64]ExclusionReason{}
	for _, e := range res.Exclusions {
		reasons[e.LineItemID] = e.Reason
	}
	want := map[int64]ExclusionReason{
		1: ExclGeo, 2: ExclExchange, 3: ExclSegment, 4: ExclPaused, 5: ExclBudget,
	}
	for id, reason := range want {
		if reasons[id] != reason {
			t.Errorf("line item %d excluded for %q, want %q", id, reasons[id], reason)
		}
	}
	if len(res.Candidates) != 1 || res.Candidates[0].LineItem.ID != 6 {
		t.Errorf("candidates = %+v", res.Candidates)
	}
	if res.Winner == nil || res.Winner.LineItem.ID != 6 {
		t.Error("open item should win")
	}
}

func TestSegmentTargetingUsesProfiles(t *testing.T) {
	seg := simpleLineItem(1, 1)
	seg.Segments = []int64{42}
	p := testPlatform(t, []*LineItem{seg})
	p.Store.SetSegments(100, []int64{42, 7})
	r := req(1, 100, 1, time.Now())
	res := p.AdServers[0].RunAuction(r)
	if res.Winner == nil {
		t.Fatal("user with matching segment should produce a winner")
	}
	res = p.AdServers[0].RunAuction(req(2, 101, 1, time.Now()))
	if res.Winner != nil {
		t.Fatal("user without segment should be filtered")
	}
}

func TestFrequencyCapEnforced(t *testing.T) {
	capped := simpleLineItem(1, 1)
	capped.FrequencyCap = 1
	p := testPlatform(t, []*LineItem{capped}, func(c *Config) {
		c.ExternalWinRate = 1.0 // every bid becomes an impression
	})
	now := time.Now()
	user := int64(5)
	// First request: serves and records.
	_, out, ok := p.Process(req(1, user, 1, now))
	if !ok || !out.Impression || out.ServeCount != 1 {
		t.Fatalf("first serve: ok=%v out=%+v", ok, out)
	}
	// Second request same day: frequency cap filters the item → no bid.
	if _, _, ok := p.Process(req(2, user, 1, now.Add(time.Minute))); ok {
		t.Fatal("capped item should not bid again")
	}
	// Next day: cap resets.
	if _, _, ok := p.Process(req(3, user, 1, now.Add(25*time.Hour))); !ok {
		t.Fatal("cap should reset next day")
	}
}

func TestFrequencyCapBypassedByCorruptProfile(t *testing.T) {
	// The §8.6 scenario: corrupt serve counts (e.g. negative) let a
	// capped ad serve repeatedly.
	capped := simpleLineItem(1, 1)
	capped.FrequencyCap = 1
	p := testPlatform(t, []*LineItem{capped}, func(c *Config) {
		c.ExternalWinRate = 1.0
	})
	now := time.Now()
	user := int64(5)
	served := 0
	for i := uint64(1); i <= 5; i++ {
		if _, out, ok := p.Process(req(i, user, 1, now.Add(time.Duration(i)*time.Minute))); ok && out.Impression {
			served++
		}
		// The corrupt feed clobbers the count after every serve.
		p.Store.CorruptServeCounts(user, map[int64]int{1: -3}, now)
	}
	if served != 5 {
		t.Errorf("corrupt profile served %d times, cap was 1 — expected 5 (the bug)", served)
	}
}

func TestBudgetExhaustionStopsBidding(t *testing.T) {
	tiny := simpleLineItem(1, 10)
	tiny.SetBudget(20) // a few impressions
	p := testPlatform(t, []*LineItem{tiny}, func(c *Config) {
		c.ExternalWinRate = 1.0
	})
	now := time.Now()
	bids := 0
	for i := uint64(1); i <= 100; i++ {
		if _, _, ok := p.Process(req(i, int64(i), 1, now)); ok {
			bids++
		}
	}
	if bids >= 100 {
		t.Error("budget never exhausted")
	}
	if bids < 2 {
		t.Errorf("bids = %d, budget should cover a few", bids)
	}
	if left := tiny.budgetMicros.Load(); left > 0 {
		t.Errorf("remaining budget = %d micros", left)
	}
}

func TestABModelsDiffer(t *testing.T) {
	item := simpleLineItem(1, 2.0)
	item.SetBudget(1e9) // never exhausts during the test
	items := []*LineItem{item}
	p := testPlatform(t, items, func(c *Config) {
		c.ModelForAdServer = func(i int) TargetingModel {
			if i == 0 {
				return BaselineModel{}
			}
			return ImprovedModel{}
		}
		c.ExternalWinRate = 1.0
	})
	if hosts := p.PresentationHostsForModel("B"); len(hosts) != 1 {
		t.Errorf("model B pres hosts = %v", hosts)
	}
	// Model B yields a higher click rate over the same users.
	now := time.Now()
	clicks := map[string]int{}
	imps := map[string]int{}
	for i := uint64(1); i <= 20000; i++ {
		r := req(i, int64(i%1000), 1, now)
		resp, out, ok := p.Process(r)
		if !ok || !out.Impression {
			continue
		}
		imps[resp.ModelName]++
		if out.Click {
			clicks[resp.ModelName]++
		}
	}
	ctrA := float64(clicks["A"]) / float64(imps["A"])
	ctrB := float64(clicks["B"]) / float64(imps["B"])
	if ctrB <= ctrA {
		t.Errorf("CTR B (%.4f) should beat CTR A (%.4f)", ctrB, ctrA)
	}
}

func TestGenerateLineItems(t *testing.T) {
	items := GenerateLineItems(200, 1)
	if len(items) != 200 {
		t.Fatalf("generated %d", len(items))
	}
	capped, targeted := 0, 0
	seen := map[int64]bool{}
	for _, li := range items {
		if seen[li.ID] {
			t.Fatalf("duplicate id %d", li.ID)
		}
		seen[li.ID] = true
		if li.AdvisoryPrice < 0.5 || li.AdvisoryPrice > 8.01 {
			t.Errorf("price %v out of range", li.AdvisoryPrice)
		}
		if li.budgetMicros.Load() <= 0 {
			t.Error("generated item without budget")
		}
		if li.FrequencyCap > 0 {
			capped++
		}
		if len(li.Countries)+len(li.Exchanges)+len(li.Segments) > 0 {
			targeted++
		}
	}
	if capped == 0 || targeted == 0 {
		t.Error("portfolio lacks variety")
	}
	// Determinism.
	again := GenerateLineItems(200, 1)
	for i := range items {
		if again[i].ID != items[i].ID || again[i].AdvisoryPrice != items[i].AdvisoryPrice {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestProfileStore(t *testing.T) {
	s := NewProfileStore()
	if got := s.Get(1); got.UserID != 1 || len(got.ServeCounts) != 0 {
		t.Errorf("empty profile = %+v", got)
	}
	s.SetSegments(1, []int64{4, 5})
	if got := s.Get(1); len(got.Segments) != 2 {
		t.Errorf("segments = %v", got.Segments)
	}
	now := time.Now()
	if n := s.RecordServe(1, 9, now); n != 1 {
		t.Errorf("first serve count = %d", n)
	}
	if n := s.RecordServe(1, 9, now); n != 2 {
		t.Errorf("second serve count = %d", n)
	}
	if n := s.ServeCount(1, 9, now); n != 2 {
		t.Errorf("read count = %d", n)
	}
	// Daily reset.
	if n := s.ServeCount(1, 9, now.Add(25*time.Hour)); n != 0 {
		t.Errorf("next-day read = %d", n)
	}
	if n := s.RecordServe(1, 9, now.Add(25*time.Hour)); n != 1 {
		t.Errorf("next-day serve = %d", n)
	}
	// Mutating a returned copy must not affect the store.
	p := s.Get(1)
	p.ServeCounts[9] = 99
	if n := s.ServeCount(1, 9, now.Add(25*time.Hour)); n != 1 {
		t.Error("Get returned shared state")
	}
}
