package event

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBuilderBuild(t *testing.T) {
	s := bidSchema(t)
	ts := time.Unix(100, 0)
	ev, err := NewBuilder(s).
		SetRequestID(77).
		SetTime(ts).
		Int("exchange_id", 5).
		Str("city", "porto").
		Str("country", "PT").
		Float("bid_price", 1.25).
		Int("campaign_id", 9).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if ev.Schema.Name() != "bid" || ev.RequestID != 77 || ev.TimeNanos != ts.UnixNano() {
		t.Fatalf("event identity wrong: %s", ev)
	}
	if v := ev.Get("city"); v.String() != "porto" {
		t.Errorf("Get(city) = %v", v)
	}
	if v := ev.Get(FieldRequestID); v.String() != "77" {
		t.Errorf("Get(request_id) = %v", v)
	}
	if v := ev.Get(FieldTimestamp); v.Kind() != KindTime || !v.Equal(Time(ts)) {
		t.Errorf("Get(ts) = %v", v)
	}
	if ev.Get("missing").IsValid() {
		t.Error("Get(missing) should be Invalid")
	}
	if ev.At(-1).IsValid() || ev.At(99).IsValid() {
		t.Error("At out of range should be Invalid")
	}
	if !strings.Contains(ev.String(), "city=porto") {
		t.Errorf("String() = %q", ev.String())
	}
}

func TestBuilderErrors(t *testing.T) {
	s := bidSchema(t)
	if _, err := NewBuilder(s).Set("nope", Int(1)).Build(); err == nil {
		t.Error("unknown field should error")
	}
	if _, err := NewBuilder(s).Set("city", Int(1)).Build(); err == nil {
		t.Error("kind mismatch should error")
	}
	// First error wins and short-circuits later Sets.
	b := NewBuilder(s).Set("nope", Int(1)).Str("city", "x")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("first error should win, got %v", err)
	}
}

func TestBuilderDefaultTime(t *testing.T) {
	s := bidSchema(t)
	before := time.Now().UnixNano()
	ev := NewBuilder(s).Int("exchange_id", 1).MustBuild()
	after := time.Now().UnixNano()
	if ev.TimeNanos < before || ev.TimeNanos > after {
		t.Errorf("default time %d outside [%d, %d]", ev.TimeNanos, before, after)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on error")
		}
	}()
	NewBuilder(bidSchema(t)).Set("nope", Int(1)).MustBuild()
}

func TestUnsetFieldsAreInvalid(t *testing.T) {
	s := bidSchema(t)
	ev := NewBuilder(s).Int("exchange_id", 1).MustBuild()
	if ev.Get("city").IsValid() {
		t.Error("unset field should be Invalid")
	}
}

func TestRequestIDGeneratorUniqueness(t *testing.T) {
	g := NewRequestIDGenerator(3)
	const n = 1000
	const workers = 8
	var mu sync.Mutex
	seen := make(map[uint64]bool, n*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]uint64, 0, n)
			for i := 0; i < n; i++ {
				local = append(local, g.Next())
			}
			mu.Lock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate id %d", id)
				}
				seen[id] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(seen) != n*workers {
		t.Errorf("got %d unique ids, want %d", len(seen), n*workers)
	}
}

func TestRequestIDGeneratorNodePrefix(t *testing.T) {
	a := NewRequestIDGenerator(1).Next()
	b := NewRequestIDGenerator(2).Next()
	if a>>48 != 1 || b>>48 != 2 {
		t.Errorf("node prefixes wrong: %x %x", a, b)
	}
}
