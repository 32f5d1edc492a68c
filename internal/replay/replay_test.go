package replay

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"scrub/internal/event"
)

func testCatalog() *event.Catalog {
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
		event.FieldDef{Name: "country", Kind: event.KindString},
	))
	cat.MustRegister(event.MustSchema("exclusion",
		event.FieldDef{Name: "line_item_id", Kind: event.KindInt},
		event.FieldDef{Name: "reason", Kind: event.KindString},
	))
	return cat
}

var testCountries = []string{"us", "uk", "de", "fr"}

// genEvent draws a random event over the test catalog.
func genTestEvent(rng *rand.Rand, cat *event.Catalog, ts int64) *event.Event {
	if rng.Intn(4) == 0 {
		sch, _ := cat.Lookup("exclusion")
		return &event.Event{
			Schema: sch, RequestID: uint64(1 + rng.Intn(1000)), TimeNanos: ts,
			Values: []event.Value{
				event.Int(int64(rng.Intn(300))),
				event.Str(testCountries[rng.Intn(len(testCountries))]),
			},
		}
	}
	sch, _ := cat.Lookup("bid")
	return &event.Event{
		Schema: sch, RequestID: uint64(1 + rng.Intn(1000)), TimeNanos: ts,
		Values: []event.Value{
			event.Int(int64(rng.Intn(200))),
			event.Float(float64(rng.Intn(1000)) / 100),
			event.Str(testCountries[rng.Intn(len(testCountries))]),
		},
	}
}

func eventsEqual(a, b *event.Event) bool {
	if a.Schema.Name() != b.Schema.Name() || a.RequestID != b.RequestID ||
		a.TimeNanos != b.TimeNanos || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if !a.Values[i].Equal(b.Values[i]) {
			return false
		}
	}
	return true
}

// seal seals the store's active chunk now rather than at its size or age
// threshold.
func seal(s *Store) {
	s.mu.Lock()
	s.sealLocked()
	s.mu.Unlock()
}

// TestSealIndexRoundTrip is the seal/index property test: for random
// event sets, every sealed chunk must decode bit-for-bit, the timestamp
// bounds must be exact, and the type bitmap must have no false negatives.
func TestSealIndexRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat := testCatalog()
		s, err := Open(Options{Catalog: cat, ChunkBytes: 1 << 20, MaxAge: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		n := 50 + rng.Intn(200)
		evs := make([]*event.Event, n)
		ts := int64(1000)
		for i := range evs {
			ts += int64(rng.Intn(5000) + 1)
			evs[i] = genTestEvent(rng, cat, ts)
			s.Append(evs[i])
		}
		seal(s)

		s.mu.Lock()
		if len(s.chunks) != 1 {
			s.mu.Unlock()
			t.Fatalf("seed %d: want 1 sealed chunk, got %d", seed, len(s.chunks))
		}
		data := s.chunks[0].data
		s.mu.Unlock()

		ix, payload, err := DecodeChunk(data)
		if err != nil {
			t.Fatalf("seed %d: decode sealed chunk: %v", seed, err)
		}
		if int(ix.Count) != n {
			t.Fatalf("seed %d: count %d != %d", seed, ix.Count, n)
		}
		var wantMin, wantMax int64
		for i, ev := range evs {
			if i == 0 || ev.TimeNanos < wantMin {
				wantMin = ev.TimeNanos
			}
			if i == 0 || ev.TimeNanos > wantMax {
				wantMax = ev.TimeNanos
			}
			if !ix.MayContainType(ev.Schema.Name()) {
				t.Fatalf("seed %d: type bitmap false negative for %q", seed, ev.Schema.Name())
			}
		}
		if ix.MinTs != wantMin || ix.MaxTs != wantMax {
			t.Fatalf("seed %d: ts bounds [%d,%d] != [%d,%d]", seed, ix.MinTs, ix.MaxTs, wantMin, wantMax)
		}
		i := 0
		err = DecodeRecords(payload, ix.Count, cat, func(ev *event.Event) bool {
			if !eventsEqual(ev, evs[i]) {
				t.Fatalf("seed %d: record %d round-trip mismatch: %+v != %+v", seed, i, ev, evs[i])
			}
			i++
			return true
		})
		if err != nil {
			t.Fatalf("seed %d: decode records: %v", seed, err)
		}
		if i != n {
			t.Fatalf("seed %d: decoded %d of %d records", seed, i, n)
		}
		s.Close()
	}
}

// TestIndexRejectsAbsent checks the index actually prunes: a type never
// appended and a time range outside the chunk's test negative.
func TestIndexRejectsAbsent(t *testing.T) {
	cat := testCatalog()
	s, err := Open(Options{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sch, _ := cat.Lookup("bid")
	for i := 0; i < 50; i++ {
		s.Append(&event.Event{Schema: sch, RequestID: uint64(i), TimeNanos: int64(i + 1),
			Values: []event.Value{event.Int(1), event.Float(1), event.Str("us")}})
	}
	seal(s)
	s.mu.Lock()
	ix := s.chunks[0].ix
	s.mu.Unlock()
	if ix.MayContainType("no_such_type") {
		t.Error("type bitmap claims a type never appended (possible but suspicious for 1 type)")
	}
	if !ix.MayContainType("bid") {
		t.Error("type bitmap misses the appended type")
	}
	if ix.Overlaps(51, 100) || ix.Overlaps(-10, 1) || !ix.Overlaps(50, 51) || !ix.Overlaps(0, 2) {
		t.Errorf("time bounds [%d,%d] prune the wrong ranges", ix.MinTs, ix.MaxTs)
	}
}

// TestScanRangeAndOrder: scans honor the half-open time range and the
// type filter, and deliver events in append order across chunk seals.
func TestScanRangeAndOrder(t *testing.T) {
	cat := testCatalog()
	s, err := Open(Options{Catalog: cat, ChunkBytes: 256}) // seal every few events
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sch, _ := cat.Lookup("bid")
	const n = 100
	for i := 0; i < n; i++ {
		s.Append(&event.Event{Schema: sch, RequestID: uint64(i), TimeNanos: int64(i) * 1000,
			Values: []event.Value{event.Int(int64(i)), event.Float(1), event.Str("us")}})
	}
	// No Seal: the tail must be served from the active chunk.
	var got []int64
	err = s.Scan(20_000, 80_000, "bid", func(ev *event.Event) bool {
		got = append(got, ev.TimeNanos)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("scan returned %d events, want 60", len(got))
	}
	for i, ts := range got {
		if ts != int64(20+i)*1000 {
			t.Fatalf("event %d ts=%d, want %d (order/range violation)", i, ts, (20+i)*1000)
		}
	}
	// Type filter: no exclusions were appended.
	count := 0
	if err := s.Scan(0, 1<<62, "exclusion", func(*event.Event) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("type-filtered scan returned %d events, want 0", count)
	}
	// Early stop.
	count = 0
	s.Scan(0, 1<<62, "bid", func(*event.Event) bool { count++; return count < 7 })
	if count != 7 {
		t.Fatalf("early-stopped scan visited %d events, want 7", count)
	}
}

// TestCrashRecovery: sealed chunks on disk survive a restart bit-intact;
// a truncated tail chunk (crash mid-write) is detected and dropped.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	s, err := Open(Options{Catalog: cat, Dir: dir, ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := cat.Lookup("bid")
	const n = 60
	for i := 0; i < n; i++ {
		s.Append(&event.Event{Schema: sch, RequestID: uint64(i), TimeNanos: int64(i) * 1000,
			Values: []event.Value{event.Int(int64(i)), event.Float(2), event.Str("de")}})
	}
	s.Close() // seals the tail and drains the flusher

	files, _ := filepath.Glob(filepath.Join(dir, "chunk-*.rec"))
	if len(files) < 3 {
		t.Fatalf("want ≥3 chunk files, got %d", len(files))
	}

	// Simulate a crash mid-write: truncate the newest chunk file.
	last := files[len(files)-1]
	fi, _ := os.Stat(last)
	if err := os.Truncate(last, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	// Count events in the surviving (intact) chunks.
	intact := 0
	for _, f := range files[:len(files)-1] {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ix, _, err := DecodeChunk(data)
		if err != nil {
			t.Fatalf("pre-crash chunk %s invalid: %v", f, err)
		}
		intact += int(ix.Count)
	}

	s2, err := Open(Options{Catalog: cat, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var got []int64
	if err := s2.Scan(0, 1<<62, "", func(ev *event.Event) bool {
		got = append(got, ev.TimeNanos)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != intact {
		t.Fatalf("recovered %d events, want %d (intact chunks only)", len(got), intact)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("recovered events out of order at %d: %d after %d", i, got[i], got[i-1])
		}
	}
	if _, err := os.Stat(last); !os.IsNotExist(err) {
		t.Errorf("truncated tail chunk %s was not dropped", last)
	}
}

// TestRecoveryDropsFirstFormatChunk: a chunk written in the first format
// ("SCRBCHK1", a 64-byte request-id bloom filter after typeBits) is
// dropped on recovery as bad magic rather than misparsed, and a current
// chunk beside it survives.
func TestRecoveryDropsFirstFormatChunk(t *testing.T) {
	cat := testCatalog()
	sch, _ := cat.Lookup("bid")
	src := t.TempDir()
	s, err := Open(Options{Catalog: cat, Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		s.Append(&event.Event{Schema: sch, RequestID: uint64(i), TimeNanos: int64(i),
			Values: []event.Value{event.Int(1), event.Float(1), event.Str("us")}})
	}
	s.Close()
	files, _ := filepath.Glob(filepath.Join(src, "chunk-*.rec"))
	if len(files) != 1 {
		t.Fatalf("want 1 chunk file, got %d", len(files))
	}
	cur, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// The same chunk in the first format: magic, minTs, maxTs, typeBits,
	// eight bloom words, count, payload length, payload, CRC.
	old := append([]byte("SCRBCHK1"), cur[8:32]...)
	old = append(old, make([]byte, 64)...)
	old = append(old, cur[32:len(cur)-4]...)
	old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
	if _, _, err := DecodeChunk(old); !errors.Is(err, errBadMagic) {
		t.Fatalf("first-format chunk decoded with err %v, want bad magic", err)
	}

	dir := t.TempDir()
	oldPath := filepath.Join(dir, "chunk-0000000000000000.rec")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "chunk-0000000000000001.rec"), cur, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Catalog: cat, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n := 0
	if err := s2.Scan(0, 1<<62, "", func(*event.Event) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d events, want the current chunk's 2", n)
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Errorf("first-format chunk %s was not dropped", oldPath)
	}
}

// TestRetentionEvictionOrdering: the byte cap evicts strictly oldest
// first, and the store keeps honoring scans over what remains.
func TestRetentionEvictionOrdering(t *testing.T) {
	cat := testCatalog()
	s, err := Open(Options{Catalog: cat, ChunkBytes: 512, MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sch, _ := cat.Lookup("bid")
	const n = 200
	for i := 0; i < n; i++ {
		s.Append(&event.Event{Schema: sch, RequestID: uint64(i), TimeNanos: int64(i) * 1000,
			Values: []event.Value{event.Int(int64(i)), event.Float(3), event.Str("fr")}})
	}
	s.mu.Lock()
	evictions, total := s.evictions.Value(), s.total
	s.mu.Unlock()
	if evictions == 0 {
		t.Fatal("byte cap never triggered an eviction")
	}
	if total > 2048 {
		t.Fatalf("retention left %d bytes > cap 2048", total)
	}
	// Whatever survived must be a contiguous suffix of the appends: an
	// eviction order other than oldest-first would leave a gap.
	var got []int64
	if err := s.Scan(0, 1<<62, "", func(ev *event.Event) bool {
		got = append(got, ev.TimeNanos)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("retention evicted everything")
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1000 {
			t.Fatalf("gap in surviving events at %d: %d then %d — eviction was not oldest-first", i, got[i-1], got[i])
		}
	}
	if got[len(got)-1] != int64(n-1)*1000 {
		t.Fatalf("newest surviving event is %d, want %d — newest chunk was evicted", got[len(got)-1], (n-1)*1000)
	}
}

// TestRetentionMaxAge: chunks older than MaxAge (by store clock) are
// evicted on the next seal.
func TestRetentionMaxAge(t *testing.T) {
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	cat := testCatalog()
	s, err := Open(Options{Catalog: cat, Clock: clock, MaxAge: time.Minute, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sch, _ := cat.Lookup("bid")
	mk := func(ts int64) *event.Event {
		return &event.Event{Schema: sch, RequestID: 1, TimeNanos: ts,
			Values: []event.Value{event.Int(1), event.Float(1), event.Str("us")}}
	}
	s.Append(mk(1))
	seal(s)
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	s.Append(mk(2))
	seal(s) // seal-time retention sees the first chunk aged out
	s.mu.Lock()
	evictions, chunks := s.evictions.Value(), len(s.chunks)
	s.mu.Unlock()
	if evictions != 1 || chunks != 1 {
		t.Fatalf("want 1 eviction leaving 1 chunk, got %d evictions, %d chunks", evictions, chunks)
	}
	var got []int64
	s.Scan(0, 1<<62, "", func(ev *event.Event) bool { got = append(got, ev.TimeNanos); return true })
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("surviving events %v, want [2]", got)
	}
}

// TestMemoryTierTrim: once chunks are safely on disk, the memory tier
// drops payloads beyond MemBytes and scans read them back from disk.
func TestMemoryTierTrim(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	s, err := Open(Options{Catalog: cat, Dir: dir, ChunkBytes: 512, MemBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := cat.Lookup("bid")
	const n = 100
	for i := 0; i < n; i++ {
		s.Append(&event.Event{Schema: sch, RequestID: uint64(i), TimeNanos: int64(i) * 1000,
			Values: []event.Value{event.Int(int64(i)), event.Float(4), event.Str("uk")}})
	}
	// Wait for the flusher to persist and trim.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		persisted := 0
		dropped := 0
		for _, c := range s.chunks {
			if c.onDisk {
				persisted++
			}
			if c.data == nil {
				dropped++
			}
		}
		total := len(s.chunks)
		s.mu.Unlock()
		if persisted == total && dropped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher never persisted+trimmed: %d/%d persisted, %d dropped", persisted, total, dropped)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A full scan must still see every event, reading trimmed chunks
	// back from disk.
	count := 0
	s.mu.Lock()
	want := int(s.activeIx.Count)
	for _, c := range s.chunks {
		want += int(c.ix.Count)
	}
	s.mu.Unlock()
	if err := s.Scan(0, 1<<62, "", func(*event.Event) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != want {
		t.Fatalf("scan over trimmed store returned %d events, want %d", count, want)
	}
	s.Close()
}

// TestConcurrentAppendScan: appends and scans race without data
// corruption (run under -race).
func TestConcurrentAppendScan(t *testing.T) {
	cat := testCatalog()
	s, err := Open(Options{Catalog: cat, ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sch, _ := cat.Lookup("bid")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Append(&event.Event{Schema: sch, RequestID: uint64(g*1000 + i), TimeNanos: int64(i) * 100,
					Values: []event.Value{event.Int(int64(i)), event.Float(1), event.Str("us")}})
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := s.Scan(0, 1<<62, "bid", func(*event.Event) bool { return true }); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.recorded.Value(); got != 2000 {
		t.Fatalf("recorded %d events, want 2000", got)
	}
}

func TestOpenRequiresCatalog(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without a catalog should fail")
	}
}
