package replay

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"scrub/internal/event"
	"scrub/internal/obs"
)

// chunkAge seals a non-empty active chunk this long after its first
// append, so quiet streams still become scannable.
const chunkAge = 5 * time.Second

// Options configures a Store. Zero values take the defaults noted.
type Options struct {
	// Catalog resolves event types when scanning. Required.
	Catalog *event.Catalog
	// Dir is the disk tier. Empty keeps sealed chunks in memory only.
	Dir string
	// ChunkBytes seals the active chunk when its payload reaches this
	// size (default 256 KiB).
	ChunkBytes int
	// MaxBytes caps total sealed bytes; oldest chunks are evicted first
	// (default 64 MiB).
	MaxBytes int64
	// MaxAge evicts chunks whose newest event is older than this
	// (default 15m).
	MaxAge time.Duration
	// MemBytes bounds sealed payloads kept in memory once they are on
	// disk (default 4 MiB). Scans read evicted payloads back from disk.
	MemBytes int64
	// Clock supplies time for age-based sealing and retention
	// (default time.Now; tests inject virtual clocks).
	Clock func() time.Time
	// Metrics, when non-nil, registers the store's scrub_host_replay_*
	// series (the record stream is host-side infrastructure).
	Metrics *obs.Registry
}

func (o *Options) fillDefaults() {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 256 << 10
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 64 << 20
	}
	if o.MaxAge <= 0 {
		o.MaxAge = 15 * time.Minute
	}
	if o.MemBytes <= 0 {
		o.MemBytes = 4 << 20
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// recBuf is the record hook's reusable encode scratch. Its bytes are
// overwritten by the next Append, so nothing may retain a slice of it —
// sealing must copy into a fresh allocation (chunk.data).
//
//scrub:pooled
type recBuf struct {
	b []byte
}

// sealed is one immutable sealed chunk. data is the full serialized
// form (header + payload + crc); it is nil when the payload has been
// dropped from the memory tier and must be read back from path.
type sealed struct {
	seq      uint64
	ix       Index
	data     []byte
	size     int64 // len(data) even when data is dropped
	onDisk   bool
	path     string
	sealedAt int64 // clock nanos at seal, for age retention of idle stores
}

// Store is the host-side record stream. Append is safe for concurrent
// use and designed for the Log hot path: one mutex, no per-event
// allocation beyond amortized buffer growth. Everything heavier —
// writing sealed chunks to disk, trimming the memory tier, retention —
// happens on a background flusher goroutine.
type Store struct {
	opt Options

	mu       sync.Mutex
	enc      recBuf // event-encode scratch, reused every Append
	active   recBuf // active chunk payload under construction
	activeIx Index
	firstNs  int64 // clock nanos of the active chunk's first append
	nextSeq  uint64
	chunks   []*sealed // oldest first
	total    int64     // sealed bytes, memory + disk
	memHeld  int64     // sealed bytes currently resident in memory
	closed   bool

	flushCh chan *sealed
	done    chan struct{}
	wg      sync.WaitGroup

	// Metrics (nil-safe: left unregistered when Options.Metrics is nil,
	// obs counters work standalone).
	recorded    obs.Counter
	recordBytes obs.Counter
	sealsTotal  obs.Counter
	evictions   obs.Counter
	flushDrops  obs.Counter
	scans       obs.Counter
	scanEvents  obs.Counter
	storeBytes  obs.Gauge
}

// Open creates a Store, recovering any sealed chunks already in
// Options.Dir. Recovery validates every chunk file wholesale: a
// truncated or corrupt file (a crash mid-write leaves exactly one, the
// highest sequence) is deleted and its events are gone; intact chunks
// replay bit-for-bit.
func Open(opt Options) (*Store, error) {
	opt.fillDefaults()
	if opt.Catalog == nil {
		return nil, fmt.Errorf("replay: Options.Catalog is required")
	}
	s := &Store{
		opt:     opt,
		flushCh: make(chan *sealed, 32),
		done:    make(chan struct{}),
	}
	s.enc.b = make([]byte, 0, 512)
	s.active.b = make([]byte, 0, opt.ChunkBytes+1024)
	if opt.Metrics != nil {
		reg := opt.Metrics
		reg.RegisterCounter("scrub_host_replay_recorded_total", "events appended to the record stream", &s.recorded)
		reg.RegisterCounter("scrub_host_replay_record_bytes_total", "encoded event bytes appended to the record stream", &s.recordBytes)
		reg.RegisterCounter("scrub_host_replay_seals_total", "record chunks sealed", &s.sealsTotal)
		reg.RegisterCounter("scrub_host_replay_evictions_total", "sealed chunks evicted by retention", &s.evictions)
		reg.RegisterCounter("scrub_host_replay_flush_drops_total", "sealed chunks not persisted because the flusher was backlogged", &s.flushDrops)
		reg.RegisterCounter("scrub_host_replay_scans_total", "replay scans started", &s.scans)
		reg.RegisterCounter("scrub_host_replay_scan_events_total", "events decoded and delivered by replay scans", &s.scanEvents)
		reg.RegisterGauge("scrub_host_replay_store_bytes", "sealed bytes currently retained (memory + disk)", &s.storeBytes)
	}
	if opt.Dir != "" {
		if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.flusher()
	return s, nil
}

// chunkPath names chunk files so lexical order is sequence order.
func (s *Store) chunkPath(seq uint64) string {
	return filepath.Join(s.opt.Dir, fmt.Sprintf("chunk-%016d.rec", seq))
}

// recover loads sealed-chunk metadata from disk. Payloads stay on disk
// (data nil); scans read them back on demand.
func (s *Store) recover() error {
	ents, err := os.ReadDir(s.opt.Dir)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "chunk-") && strings.HasSuffix(n, ".rec") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		path := filepath.Join(s.opt.Dir, n)
		seq, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, "chunk-"), ".rec"), 10, 64)
		data, rerr := os.ReadFile(path)
		var ix Index
		if perr == nil && rerr == nil {
			ix, _, perr = DecodeChunk(data)
		}
		if perr != nil || rerr != nil {
			// Truncated tail from a crash mid-write, or garbage: drop it.
			os.Remove(path)
			continue
		}
		sealedAt := s.opt.Clock().UnixNano()
		if fi, err := os.Stat(path); err == nil {
			sealedAt = fi.ModTime().UnixNano()
		}
		s.chunks = append(s.chunks, &sealed{
			seq: seq, ix: ix, size: int64(len(data)), onDisk: true, path: path,
			sealedAt: sealedAt,
		})
		s.total += int64(len(data))
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	s.retainLocked(s.opt.Clock().UnixNano())
	s.storeBytes.Set(s.total)
	return nil
}

// Append records one event. It is called from the agent's Log hot path:
// when recording is enabled the cost is one mutex, one encode into a
// reused buffer, and an index update — no per-event allocation beyond
// amortized growth of the chunk buffer.
//
//scrub:allowalloc(record-stream buffers grow amortized toward ChunkBytes and are reused across chunks; sealing allocates once per chunk, not per event)
func (s *Store) Append(ev *event.Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.enc.b = event.AppendEvent(s.enc.b[:0], ev)
	n := len(s.enc.b)
	if s.activeIx.Count == 0 {
		s.firstNs = s.opt.Clock().UnixNano()
	}
	s.active.b = binary.AppendUvarint(s.active.b, uint64(n))
	s.active.b = append(s.active.b, s.enc.b...)
	s.activeIx.observeTs(ev.TimeNanos)
	s.activeIx.addType(ev.Schema.Name())
	s.activeIx.Count++
	// Size sealing happens inline; age sealing is the flusher ticker's
	// job so the hot path pays at most one Clock call per chunk.
	if len(s.active.b) >= s.opt.ChunkBytes {
		s.sealLocked()
	}
	s.mu.Unlock()
	s.recorded.Inc()
	s.recordBytes.Add(uint64(n))
}

// sealLocked freezes the active chunk. The payload is copied into the
// sealed chunk's own allocation — the active buffer (recBuf, pooled) is
// immediately reused for the next chunk.
func (s *Store) sealLocked() {
	if s.activeIx.Count == 0 {
		return
	}
	ix := s.activeIx
	c := &sealed{
		seq:      s.nextSeq,
		ix:       ix,
		data:     appendChunk(make([]byte, 0, chunkHdrSize+len(s.active.b)+4), &ix, s.active.b),
		sealedAt: s.opt.Clock().UnixNano(),
	}
	c.size = int64(len(c.data))
	if s.opt.Dir != "" {
		c.path = s.chunkPath(c.seq)
	}
	s.nextSeq++
	//scrub:allowretain(resetting the store's own scratch, not retaining it: the payload was copied into c.data above)
	s.active.b = s.active.b[:0]
	s.activeIx = Index{}
	s.chunks = append(s.chunks, c)
	s.total += c.size
	s.memHeld += c.size
	s.sealsTotal.Inc()
	s.retainLocked(c.sealedAt)
	s.storeBytes.Set(s.total)
	if s.opt.Dir != "" {
		select {
		case s.flushCh <- c:
		default:
			// Flusher backlogged: the chunk stays memory-only. Retention
			// by bytes still bounds it; only durability is lost for this
			// chunk.
			s.flushDrops.Inc()
		}
	}
}

// retainLocked evicts oldest-first until the byte and age policies
// hold. Age is measured from seal time in the store clock's domain —
// the same domain the cutoff comes from — so synthetic event
// timestamps in tests cannot trip wall-clock retention.
func (s *Store) retainLocked(nowNs int64) {
	cutoff := nowNs - int64(s.opt.MaxAge)
	for len(s.chunks) > 0 {
		c := s.chunks[0]
		if s.total <= s.opt.MaxBytes && c.sealedAt >= cutoff {
			break
		}
		s.chunks = s.chunks[1:]
		s.total -= c.size
		if c.data != nil {
			s.memHeld -= c.size
		}
		if c.onDisk {
			os.Remove(c.path)
		}
		c.data = nil
		s.evictions.Inc()
	}
	s.storeBytes.Set(s.total)
}

// trimMemLocked drops in-memory payloads (oldest first) that are safely
// on disk until the memory tier fits MemBytes.
func (s *Store) trimMemLocked() {
	for _, c := range s.chunks {
		if s.memHeld <= s.opt.MemBytes {
			return
		}
		if c.data != nil && c.onDisk {
			c.data = nil
			s.memHeld -= c.size
		}
	}
}

// flusher persists sealed chunks and maintains the tiers off the hot
// path. The ticker seals idle active chunks past chunkAge and applies
// age retention even when nothing is being appended.
func (s *Store) flusher() {
	defer s.wg.Done()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case c := <-s.flushCh:
			s.flushOne(c)
		case <-tick.C:
			s.mu.Lock()
			now := s.opt.Clock().UnixNano()
			if s.activeIx.Count > 0 && now-s.firstNs >= int64(chunkAge) {
				s.sealLocked()
			}
			s.retainLocked(now)
			s.mu.Unlock()
		case <-s.done:
			for {
				select {
				case c := <-s.flushCh:
					s.flushOne(c)
				default:
					return
				}
			}
		}
	}
}

// flushOne writes a sealed chunk to the disk tier in a single
// write-then-rename so a crash can never leave a half-written file
// under the final name, then trims the memory tier.
func (s *Store) flushOne(c *sealed) {
	s.mu.Lock()
	data, path := c.data, c.path
	evicted := c.data == nil && !c.onDisk
	s.mu.Unlock()
	if path == "" || data == nil {
		if !evicted && path != "" {
			s.flushDrops.Inc()
		}
		return
	}
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	s.mu.Lock()
	if err == nil {
		c.onDisk = true
		s.trimMemLocked()
	} else {
		s.flushDrops.Inc()
		os.Remove(tmp)
	}
	s.mu.Unlock()
}

// Scan replays every recorded event of the named type with TimeNanos in
// [fromNs, toNs), oldest chunk first, in append order within a chunk.
// Chunks are pruned on their index before any decode. The callback
// returns false to stop early. An empty typeName matches every type.
//
// Scan snapshots chunk references under the lock and decodes outside
// it: sealed data is immutable, and the active payload is copied. Only a
// sealed chunk is framed and checksummed; the active one's copy is
// decoded as the records it is.
func (s *Store) Scan(fromNs, toNs int64, typeName string, fn func(ev *event.Event) bool) error {
	type span struct {
		ix   Index
		data []byte
		path string
		// records is the active chunk's copied payload, nil for a sealed
		// chunk.
		records []byte
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("replay: store closed")
	}
	spans := make([]span, 0, len(s.chunks)+1)
	for _, c := range s.chunks {
		if !c.ix.Overlaps(fromNs, toNs) || (typeName != "" && !c.ix.MayContainType(typeName)) {
			continue
		}
		spans = append(spans, span{ix: c.ix, data: c.data, path: c.path})
	}
	if s.activeIx.Overlaps(fromNs, toNs) && (typeName == "" || s.activeIx.MayContainType(typeName)) {
		cp := make([]byte, len(s.active.b)) // non-nil even when empty
		copy(cp, s.active.b)
		spans = append(spans, span{ix: s.activeIx, records: cp})
	}
	s.mu.Unlock()
	s.scans.Inc()

	cont := true
	for _, sp := range spans {
		if !cont {
			break
		}
		var err error
		payload := sp.records
		if payload == nil {
			data := sp.data
			if data == nil {
				if data, err = os.ReadFile(sp.path); err != nil {
					continue // evicted between snapshot and read
				}
			}
			if _, payload, err = DecodeChunk(data); err != nil {
				return err
			}
		}
		err = DecodeRecords(payload, sp.ix.Count, s.opt.Catalog, func(ev *event.Event) bool {
			if ev.TimeNanos < fromNs || ev.TimeNanos >= toNs {
				return true
			}
			if typeName != "" && ev.Schema.Name() != typeName {
				return true
			}
			s.scanEvents.Inc()
			cont = fn(ev)
			return cont
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Close seals the active chunk, drains pending flushes, and stops the
// background flusher. Append becomes a no-op afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.sealLocked()
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	return nil
}
