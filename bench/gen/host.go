package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"scrub/internal/event"
)

// HostPoolSize is how many distinct bid events the host workloads cycle
// through. Large enough that the zipf tail, every predicate and every
// projection group is represented; small enough to stay cache- and
// GC-neutral next to the agent's own state.
const HostPoolSize = 1 << 16

// HostInput is the content pool of host-fanout and host-firehose (both
// consume the same pool — same Hash). Events is immutable: the load
// generator copies an entry into its own scratch and stamps it.
type HostInput struct {
	// Events are bid events with RequestID holding the user id and a zero
	// TimeNanos; Stamp fills both in.
	Events []event.Event
	Hash   string
}

// Host generates the host workloads' pool.
func Host(seed int64) *HostInput {
	src := newSource(seed)
	in := &HostInput{Events: make([]event.Event, HostPoolSize)}
	h := sha256.New()
	for i := range in.Events {
		user := src.user()
		in.Events[i] = event.Event{Schema: BidSchema, RequestID: user, Values: src.bidValues(user)}
		hashEvent(h, &in.Events[i])
	}
	in.Hash = hexSum(h)
	return in
}

// Stamp writes pool event src into dst as the run's n'th request created
// at ts: what the application does when it builds an event to log.
func Stamp(dst, src *event.Event, ordinal uint64, ts int64) {
	*dst = *src
	dst.RequestID = RequestID(ordinal, src.RequestID)
	dst.TimeNanos = ts
}

// MatchCounts returns, for each query, how many of the first n logged
// events (pool order, cycling) its reference predicate matches.
func (in *HostInput) MatchCounts(queries []HostQuery, n uint64) []uint64 {
	pool := uint64(len(in.Events))
	full, rem := n/pool, n%pool
	out := make([]uint64, len(queries))
	for qi, q := range queries {
		if q.Match == nil {
			out[qi] = n
			continue
		}
		var all, head uint64
		for i := range in.Events {
			if q.Match(in.Events[i].Values) {
				all++
				if uint64(i) < rem {
					head++
				}
			}
		}
		out[qi] = full*all + head
	}
	return out
}

func hashEvent(h hash.Hash, ev *event.Event) {
	var buf []byte
	buf = append(buf, ev.Schema.Name()...)
	buf = binary.LittleEndian.AppendUint64(buf, ev.RequestID)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.TimeNanos))
	for _, v := range ev.Values {
		buf = event.AppendValue(buf, v)
	}
	h.Write(buf)
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:16]) }
