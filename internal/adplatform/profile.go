package adplatform

import (
	"sync"
	"time"
)

// UserProfile is the per-user state the platform maintains: audience
// segments and per-line-item serve counts used to enforce frequency caps
// (paper §8.6). Profiles are value types; the store hands out copies.
type UserProfile struct {
	UserID   int64
	Segments []int64
	// ServeCounts maps line item id → ads served in the current day.
	ServeCounts map[int64]int
	// DayStart anchors the daily reset of serve counts (unix nanos).
	DayStart int64
}

// clone deep-copies the profile.
func (p UserProfile) clone() UserProfile {
	cp := p
	cp.Segments = append([]int64(nil), p.Segments...)
	cp.ServeCounts = make(map[int64]int, len(p.ServeCounts))
	for k, v := range p.ServeCounts {
		cp.ServeCounts[k] = v
	}
	return cp
}

// ProfileStore is the in-memory profile database backing the
// PresentationServers and the filtering phase. Production Turn runs this
// as a distributed store; a sharded in-memory map preserves the behavior
// the platform depends on: read-modify-write serve counts, daily resets,
// and — for the §8.6 case study — the possibility of corrupt data
// arriving from an external input feed.
type ProfileStore struct {
	shards [16]profileShard
}

type profileShard struct {
	mu       sync.RWMutex
	profiles map[int64]UserProfile
}

// NewProfileStore returns an empty store.
func NewProfileStore() *ProfileStore {
	s := &ProfileStore{}
	for i := range s.shards {
		s.shards[i].profiles = make(map[int64]UserProfile)
	}
	return s
}

func (s *ProfileStore) shard(user int64) *profileShard {
	return &s.shards[uint64(user)%uint64(len(s.shards))]
}

// Get returns a copy of a user's profile; absent users get an empty
// profile (not an error — new users appear constantly).
func (s *ProfileStore) Get(user int64) UserProfile {
	sh := s.shard(user)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if p, ok := sh.profiles[user]; ok {
		return p.clone()
	}
	return UserProfile{UserID: user, ServeCounts: map[int64]int{}}
}

// SetSegments assigns a user's audience segments.
func (s *ProfileStore) SetSegments(user int64, segs []int64) {
	sh := s.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.profiles[user]
	if !ok {
		p = UserProfile{UserID: user, ServeCounts: map[int64]int{}}
	}
	p.Segments = append([]int64(nil), segs...)
	sh.profiles[user] = p
}

// RecordServe increments a user's serve count for a line item, applying
// the daily reset, and returns the new count.
func (s *ProfileStore) RecordServe(user, lineItem int64, now time.Time) int {
	sh := s.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.profiles[user]
	if !ok {
		p = UserProfile{UserID: user, ServeCounts: map[int64]int{}}
	}
	dayStart := now.Truncate(24 * time.Hour).UnixNano()
	if p.DayStart != dayStart {
		p.DayStart = dayStart
		p.ServeCounts = map[int64]int{}
	}
	if p.ServeCounts == nil {
		p.ServeCounts = map[int64]int{}
	}
	p.ServeCounts[lineItem]++
	sh.profiles[user] = p
	return p.ServeCounts[lineItem]
}

// ServeCount reads a user's current count for a line item, applying the
// daily reset semantics read-side.
func (s *ProfileStore) ServeCount(user, lineItem int64, now time.Time) int {
	sh := s.shard(user)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	p, ok := sh.profiles[user]
	if !ok || p.ServeCounts == nil {
		return 0
	}
	if p.DayStart != now.Truncate(24*time.Hour).UnixNano() {
		return 0 // stale day: counts reset on next write
	}
	return p.ServeCounts[lineItem]
}

// CorruptServeCounts overwrites a user's serve-count map wholesale —
// the §8.6 scenario: erroneous input data (an external feed) clobbers
// frequency state so capped ads serve again. Negative counts model the
// observed corruption.
func (s *ProfileStore) CorruptServeCounts(user int64, counts map[int64]int, dayStart time.Time) {
	sh := s.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.profiles[user]
	if !ok {
		p = UserProfile{UserID: user}
	}
	p.DayStart = dayStart.Truncate(24 * time.Hour).UnixNano()
	p.ServeCounts = make(map[int64]int, len(counts))
	for k, v := range counts {
		p.ServeCounts[k] = v
	}
	sh.profiles[user] = p
}
