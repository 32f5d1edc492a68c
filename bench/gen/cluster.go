package gen

import (
	"crypto/sha256"

	"scrub/internal/event"
)

// ClusterAgents is how many host agents cluster-wire runs; each logs its
// own pool.
const ClusterAgents = 2

// clusterRequests is the number of requests in one agent's pool.
const clusterRequests = 1 << 15

// ClusterPool is one agent's content for cluster-wire: requests in log
// order, each a bid event followed by its 0–2 exclusion events. All events
// of a request carry the request's identifier and creation time, so the
// request-id equi-join pairs them inside one window whatever the window
// alignment: every logged exclusion is exactly one join row.
type ClusterPool struct {
	Events []event.Event
	// Lead[i] is the pool index of event i's bid; Ord[i] the request's
	// ordinal within the pool.
	Lead     []int32
	Ord      []uint32
	Requests int
}

// ClusterInput is cluster-wire's content.
type ClusterInput struct {
	Pools [ClusterAgents]*ClusterPool
	Hash  string
}

// Cluster generates cluster-wire's pools.
func Cluster(seed int64) *ClusterInput {
	src := newSource(seed)
	in := &ClusterInput{}
	h := sha256.New()
	for a := range in.Pools {
		p := &ClusterPool{Requests: clusterRequests}
		for r := 0; r < clusterRequests; r++ {
			user := src.user()
			lead := int32(len(p.Events))
			bid := event.Event{Schema: BidSchema, RequestID: user, Values: src.bidValues(user)}
			p.Events = append(p.Events, bid)
			p.Lead = append(p.Lead, lead)
			p.Ord = append(p.Ord, uint32(r))
			for k := []int{0, 1, 1, 2}[src.rng.Intn(4)]; k > 0; k-- {
				ex := event.Event{Schema: ExclusionSchema, RequestID: user,
					Values: src.exclusionValues(bid.Values[fExchange])}
				p.Events = append(p.Events, ex)
				p.Lead = append(p.Lead, lead)
				p.Ord = append(p.Ord, uint32(r))
			}
		}
		for i := range p.Events {
			hashEvent(h, &p.Events[i])
		}
		in.Pools[a] = p
	}
	in.Hash = hexSum(h)
	return in
}

// Stamp writes the agent's i'th logged event (counting from 0 across pool
// cycles) into dst. eventNanos is the generator's inter-event interval and
// t0 its start: an event is created at its request's scheduled time.
func (p *ClusterPool) Stamp(dst *event.Event, agent int, i uint64, t0, eventNanos int64) {
	n := uint64(len(p.Events))
	pass, j := i/n, i%n
	*dst = p.Events[j]
	ordinal := (pass*uint64(p.Requests)+uint64(p.Ord[j]))*ClusterAgents + uint64(agent)
	dst.RequestID = RequestID(ordinal, dst.RequestID)
	dst.TimeNanos = t0 + int64(pass*n+uint64(p.Lead[j]))*eventNanos
}

// Counts returns how many bid and exclusion events the first n logged
// events of the pool (cycling) contain.
func (p *ClusterPool) Counts(n uint64) (bids, exclusions uint64) {
	size := uint64(len(p.Events))
	full, rem := n/size, n%size
	var allBids, headBids uint64
	for i := range p.Events {
		if p.Events[i].Schema == BidSchema {
			allBids++
			if uint64(i) < rem {
				headBids++
			}
		}
	}
	bids = full*allBids + headBids
	return bids, n - bids
}
