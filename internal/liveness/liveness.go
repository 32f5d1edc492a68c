// Package liveness tracks the health of the per-(host, event-type) tuple
// streams feeding ScrubCentral. Every batch (including counter-only
// heartbeats) renews a stream's lease; a stream whose lease expires is
// *evicted*: it stops participating in the query watermark — so one
// crashed or partitioned host can no longer stall window emission for
// everyone — and the windows emitted while it is out carry a degraded
// marker naming it, with its last-known accounting. A stream that
// reconnects is re-admitted: it rejoins the watermark, and tuples it
// ships for windows that closed in its absence are counted as late
// instead of corrupting closed results.
//
// The paper's design (§4/§6: bounded queues, drop-under-pressure, finite
// spans, no durable state) calls for exactly this shape of graceful
// degradation: progress is never held hostage to a dead peer, and every
// loss is accounted, never silent.
//
// A stream embeds the transport.StreamStat its windows report, and
// Table.Fold is the one place a batch's report — its manifest: the
// batch's header plus what routing and the shards did with it — is
// folded into it, and Table.Report the one place the streams are read
// back out. Drops are kept apart by cause inside the stream and reported
// as sums: host queue and routing drops as Drops, late and overflow drops
// at the shards as ShardDrops.
//
// A Table is NOT self-locking: the central engines mutate it while
// holding their own query locks, so adding a second mutex here would only
// buy deadlock surface. Callers must serialize access themselves.
package liveness

import (
	"sort"
	"time"

	"scrub/internal/transport"
)

// Key identifies one tuple stream: a host shipping one event type of one
// query. (The query dimension is implicit — engines keep one Table per
// query.)
type Key struct {
	Host    string
	TypeIdx uint8
}

// Stream is the per-stream lease and accounting state. It embeds the
// StreamStat a window reports of it, so the report is folded in place and
// Report copies it out whole.
type Stream struct {
	transport.StreamStat
	// LastSeen is the wall-clock nanos of the last batch or heartbeat.
	LastSeen int64
	// LastTs is the max event time shipped so far; HasTs gates it so a
	// stream that has only sent heartbeats does not pin the watermark at 0.
	LastTs int64
	HasTs  bool
	// Replaying marks a stream currently shipping replayed history: it
	// announced a nonzero replay epoch and has not yet sent its ReplayDone
	// marker. ReplayEnded latches once its replay finished (done marker,
	// or eviction mid-replay), so a duplicated or reordered epoch batch
	// cannot restart a finished replay.
	Replaying   bool
	ReplayEnded bool
	// The two causes StreamStat.Drops sums: the host's cumulative queue
	// drops (max-folded) and the routing failures of every manifest
	// received (added up: each manifest reports its own batch's).
	hostDrops  uint64
	routeDrops uint64
	// overflow adds up the manifests' OverflowDelta: tuples the shards
	// accepted and could not keep (raw-row and join-pending caps).
	// StreamStat does not report it; Report.ShardDrops does.
	overflow uint64
}

// Table holds the lease state for one query's streams.
type Table struct {
	ttl     int64
	streams map[Key]*Stream
	// Replay bookkeeping: how many streams ever announced replay and how
	// many are still replaying. Maintained by Fold and Expire; the
	// engines' replay hold reads them through ReplaySettled.
	replayStarted int
	replayActive  int
}

// DefaultTTL is the lease timeout applied when none is configured. It
// must comfortably exceed the host agents' heartbeat cadence (default 1s)
// so a healthy-but-quiet stream is never evicted between heartbeats.
const DefaultTTL = 3 * time.Second

// NewTable creates an empty lease table; ttl <= 0 selects DefaultTTL.
func NewTable(ttl time.Duration) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Table{ttl: int64(ttl), streams: make(map[Key]*Stream)}
}

// Fold renews the lease of m's stream at nowNanos (creating it on first
// contact, re-admitting it if evicted) and folds the batch's report into
// it. Cumulative counters max-fold, so a delayed or duplicated batch
// cannot regress them; a reported rate replaces the last (rates recover
// too) and shed is sticky; LateDelta, OverflowDelta and RouteDrops,
// which are the batch's own, add up, and Drops reports the host's queue
// drops plus the routing drops; the clock takes the newest MaxTs.
func (t *Table) Fold(m *transport.BatchManifest, nowNanos int64) {
	k := Key{Host: m.HostID, TypeIdx: m.TypeIdx}
	s := t.streams[k]
	if s == nil {
		s = &Stream{StreamStat: transport.StreamStat{HostID: k.Host, TypeIdx: k.TypeIdx}}
		t.streams[k] = s
	}
	s.LastSeen = nowNanos
	s.Evicted = false
	s.Matched = max(s.Matched, m.MatchedTotal)
	s.Sampled = max(s.Sampled, m.SampledTotal)
	s.hostDrops = max(s.hostDrops, m.QueueDrops)
	s.routeDrops += m.RouteDrops
	s.Drops = s.hostDrops + s.routeDrops
	s.CPUNs = max(s.CPUNs, m.CPUNs)
	s.Bytes = max(s.Bytes, m.ShipBytes)
	if m.EffRate > 0 {
		s.EffRate = m.EffRate
	}
	s.BudgetShed = s.BudgetShed || m.BudgetShed
	s.LateDrops += m.LateDelta
	s.overflow += m.OverflowDelta
	if m.HasTs && (!s.HasTs || m.MaxTs > s.LastTs) {
		s.LastTs, s.HasTs = m.MaxTs, true
	}
	// Replay framing. A live batch (epoch 0) says nothing: replay chunks
	// interleave with live ones on the same stream, so only the
	// ReplayDone marker (or eviction) ends a replay.
	if m.ReplayEpoch == 0 {
		return
	}
	if !s.Replaying && !s.ReplayEnded {
		s.Replaying = true
		t.replayStarted++
		t.replayActive++
	}
	if m.ReplayDone && s.Replaying {
		s.Replaying = false
		s.ReplayEnded = true
		t.replayActive--
	}
}

// ReplaySettled reports whether replay shipping has finished: at least
// one stream announced replay and none is still replaying. A query no
// recording host serves never settles — the engines' hold deadline
// covers that case.
func (t *Table) ReplaySettled() bool {
	return t.replayStarted > 0 && t.replayActive == 0
}

// Expire evicts every live stream whose lease is older than the TTL at
// nowNanos and returns the newly evicted keys (sorted, deterministic).
// Already-evicted streams are not reported again.
func (t *Table) Expire(nowNanos int64) []Key {
	var out []Key
	for k, s := range t.streams {
		if s.Evicted {
			continue
		}
		if nowNanos-s.LastSeen >= t.ttl {
			s.Evicted = true
			if s.Replaying {
				// A dead host cannot finish its replay; a replay hold
				// must not wait out its own deadline for it.
				s.Replaying = false
				s.ReplayEnded = true
				t.replayActive--
			}
			out = append(out, k)
		}
	}
	sortKeys(out)
	return out
}

// Watermark returns the minimum LastTs across live (non-evicted) streams
// that have shipped at least one tuple, and false when no such stream
// exists. Evicted streams are excluded — that is the whole point: a dead
// host's frozen clock must not stop everyone else's windows from
// closing.
func (t *Table) Watermark() (int64, bool) {
	first := true
	var wm int64
	for _, s := range t.streams {
		if s.Evicted || !s.HasTs {
			continue
		}
		if first || s.LastTs < wm {
			wm = s.LastTs
			first = false
		}
	}
	return wm, !first
}

// Len returns the number of tracked streams.
func (t *Table) Len() int { return len(t.streams) }

// Report is what a window, a query's stats and a status call say of a
// query's streams, read from the table in one pass.
type Report struct {
	// Streams is every stream's StreamStat, sorted by (host, type) so
	// emitted windows are deterministic; nil for an empty table.
	Streams []transport.StreamStat
	// Drops sums the streams' Drops — host queue drops plus routing
	// failures (evicted streams included: their losses still happened).
	Drops uint64
	// ShardDrops sums what the shards dropped of every stream's tuples —
	// window-late drops plus overflow — as the manifests folded so far
	// reported it (evicted streams included).
	ShardDrops uint64
	// Evicted counts the streams currently evicted.
	Evicted int
	// Shed reports whether at least one stream has been shed by the host
	// budget governor.
	Shed bool
	// Rates maps each host that reported an effective event-sampling rate
	// to the minimum across its streams. It is nil when every reported
	// rate equals the plan rate (within rounding), so the common
	// unbudgeted case allocates nothing and downstream code can treat nil
	// as "plan rate everywhere".
	Rates map[string]float64
}

// Report reads every stream once; planRate is the rate a stream's
// reported rate must deviate from for Rates to be filled.
func (t *Table) Report(planRate float64) Report {
	var r Report
	if len(t.streams) == 0 {
		return r
	}
	r.Streams = make([]transport.StreamStat, 0, len(t.streams))
	deviates := false
	for _, s := range t.streams {
		r.Streams = append(r.Streams, s.StreamStat)
		r.Drops += s.Drops
		r.ShardDrops += s.LateDrops + s.overflow
		if s.Evicted {
			r.Evicted++
		}
		r.Shed = r.Shed || s.BudgetShed
		if diff := s.EffRate - planRate; s.EffRate > 0 && (diff > 1e-12 || diff < -1e-12) {
			deviates = true
		}
	}
	sort.Slice(r.Streams, func(i, j int) bool {
		a, b := &r.Streams[i], &r.Streams[j]
		if a.HostID != b.HostID {
			return a.HostID < b.HostID
		}
		return a.TypeIdx < b.TypeIdx
	})
	if deviates {
		r.Rates = make(map[string]float64, 4)
		for _, s := range r.Streams {
			if prev, ok := r.Rates[s.HostID]; s.EffRate > 0 && (!ok || s.EffRate < prev) {
				r.Rates[s.HostID] = s.EffRate
			}
		}
	}
	return r
}

func sortKeys(ks []Key) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].Host != ks[j].Host {
			return ks[i].Host < ks[j].Host
		}
		return ks[i].TypeIdx < ks[j].TypeIdx
	})
}
