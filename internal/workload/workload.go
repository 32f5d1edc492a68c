// Package workload generates the synthetic-but-shaped traffic the
// simulated ad platform consumes: a heterogeneous human user population
// (log-normal page-view rates, multi-slot pages), exchanges with
// weights and onboarding times (§8.2), and spam bots issuing large
// high-frequency request batches (§8.1). Generation is an event-driven
// simulation over virtual time, fully deterministic for a seed.
package workload

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"

	"scrub/internal/adplatform"
)

// Exchange is one ad exchange in the mix.
type Exchange struct {
	ID     int64
	Weight float64
	// EnableAt is the virtual offset when the exchange starts sending
	// traffic — the §8.2 onboarding moment. Zero means from the start.
	EnableAt time.Duration
}

// BotSpec is one spam bot (§8.1): it fires a batch of bid requests every
// Period, simulating scripted page views at inhuman frequency.
type BotSpec struct {
	UserID    int64
	BatchSize int
	Period    time.Duration
	StartAt   time.Duration // first burst offset
	StopAt    time.Duration // 0 = never stops
}

// Spec parametrizes a traffic generator.
type Spec struct {
	Seed     int64
	NumUsers int
	// MeanPageViewsPerMin is the population mean page-view rate; actual
	// per-user rates are log-normal around it (humans are heterogeneous).
	MeanPageViewsPerMin float64
	// SlotsPerPage bounds ad slots per page view (each slot is one bid
	// request); default [1, 3].
	MinSlots, MaxSlots int

	Countries []string // uniform per-user assignment; default {"US","GB","DE","FR","BR"}
	Cities    []string // default a small city list
	// NumSegments is the segment-id universe; each user gets 1–4.
	NumSegments int

	Exchanges []Exchange
	Bots      []BotSpec

	// FirstUserID offsets generated user ids (bots use their own ids).
	FirstUserID int64
}

func (s *Spec) fillDefaults() error {
	if s.NumUsers <= 0 && len(s.Bots) == 0 {
		return fmt.Errorf("workload: no users and no bots")
	}
	if s.MeanPageViewsPerMin <= 0 {
		s.MeanPageViewsPerMin = 2
	}
	if s.MinSlots <= 0 {
		s.MinSlots = 1
	}
	if s.MaxSlots < s.MinSlots {
		s.MaxSlots = s.MinSlots + 2
	}
	if len(s.Countries) == 0 {
		s.Countries = []string{"US", "GB", "DE", "FR", "BR"}
	}
	if len(s.Cities) == 0 {
		s.Cities = []string{"san jose", "london", "berlin", "paris", "sao paulo", "new york", "austin"}
	}
	if s.NumSegments <= 0 {
		s.NumSegments = 50
	}
	if len(s.Exchanges) == 0 {
		s.Exchanges = []Exchange{{ID: 1, Weight: 1}}
	}
	for i, e := range s.Exchanges {
		if e.Weight <= 0 {
			return fmt.Errorf("workload: exchange %d has non-positive weight", i)
		}
	}
	return nil
}

// userState is one simulated human.
type userState struct {
	id       int64
	country  string
	city     string
	segments []int64
	rate     float64 // page views per virtual second
}

// actor is a schedulable traffic source.
type actor struct {
	nextNanos int64
	user      *userState
	bot       *BotSpec
	index     int // heap bookkeeping
}

type actorHeap []*actor

func (h actorHeap) Len() int           { return len(h) }
func (h actorHeap) Less(i, j int) bool { return h[i].nextNanos < h[j].nextNanos }
func (h actorHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *actorHeap) Push(x any)        { a := x.(*actor); a.index = len(*h); *h = append(*h, a) }
func (h *actorHeap) Pop() any          { old := *h; n := len(old); a := old[n-1]; *h = old[:n-1]; return a }

// Generator produces bid requests in virtual-time order.
type Generator struct {
	spec  Spec
	rng   *rand.Rand
	users []*userState
	start int64 // virtual epoch, unix nanos
	reqID uint64
	heap  actorHeap
}

// NewGenerator builds a generator whose virtual clock starts at start.
func NewGenerator(spec Spec, start time.Time) (*Generator, error) {
	if err := spec.fillDefaults(); err != nil {
		return nil, err
	}
	g := &Generator{
		spec:  spec,
		rng:   rand.New(rand.NewSource(spec.Seed)),
		start: start.UnixNano(),
	}
	// Build the human population: per-user rates log-normal around the
	// population mean (σ=0.8 gives a realistic heavy tail).
	meanPerSec := spec.MeanPageViewsPerMin / 60
	for i := 0; i < spec.NumUsers; i++ {
		u := &userState{
			id:      spec.FirstUserID + int64(i),
			country: spec.Countries[g.rng.Intn(len(spec.Countries))],
			city:    spec.Cities[g.rng.Intn(len(spec.Cities))],
			rate:    meanPerSec * math.Exp(g.rng.NormFloat64()*0.8-0.32), // mean-preserving
		}
		nSegs := 1 + g.rng.Intn(4)
		for s := 0; s < nSegs; s++ {
			u.segments = append(u.segments, int64(1+g.rng.Intn(spec.NumSegments)))
		}
		g.users = append(g.users, u)
		first := g.start + g.exponential(u.rate)
		heap.Push(&g.heap, &actor{nextNanos: first, user: u})
	}
	for i := range spec.Bots {
		b := &spec.Bots[i]
		if b.BatchSize <= 0 || b.Period <= 0 {
			return nil, fmt.Errorf("workload: bot %d needs positive BatchSize and Period", i)
		}
		heap.Push(&g.heap, &actor{nextNanos: g.start + int64(b.StartAt), bot: b})
	}
	return g, nil
}

// exponential draws an exponential inter-arrival in nanos for a
// per-second rate.
func (g *Generator) exponential(ratePerSec float64) int64 {
	if ratePerSec <= 0 {
		return int64(time.Hour * 24 * 365)
	}
	return int64(g.rng.ExpFloat64() / ratePerSec * float64(time.Second))
}

// InstallProfiles seeds the platform's ProfileStore with the user
// population's segments.
func (g *Generator) InstallProfiles(store *adplatform.ProfileStore) {
	for _, u := range g.users {
		store.SetSegments(u.id, u.segments)
	}
}

// pickExchange chooses an exchange active at virtual time t.
func (g *Generator) pickExchange(tNanos int64) (int64, bool) {
	var total float64
	for _, e := range g.spec.Exchanges {
		if tNanos >= g.start+int64(e.EnableAt) {
			total += e.Weight
		}
	}
	if total == 0 {
		return 0, false
	}
	x := g.rng.Float64() * total
	for _, e := range g.spec.Exchanges {
		if tNanos < g.start+int64(e.EnableAt) {
			continue
		}
		x -= e.Weight
		if x <= 0 {
			return e.ID, true
		}
	}
	return g.spec.Exchanges[len(g.spec.Exchanges)-1].ID, true
}

// Run generates all bid requests in [start, start+duration), in virtual
// time order, invoking fn for each. It returns the number generated.
func (g *Generator) Run(duration time.Duration, fn func(adplatform.BidRequest)) int {
	endNanos := g.start + int64(duration)
	n := 0
	for g.heap.Len() > 0 {
		a := g.heap[0]
		if a.nextNanos >= endNanos {
			break
		}
		t := a.nextNanos
		switch {
		case a.user != nil:
			n += g.emitPageView(a.user, t, fn)
			a.nextNanos = t + g.exponential(a.user.rate)
		case a.bot != nil:
			b := a.bot
			if b.StopAt != 0 && t >= g.start+int64(b.StopAt) {
				heap.Pop(&g.heap)
				continue
			}
			n += g.emitBotBurst(b, t, fn)
			a.nextNanos = t + int64(b.Period)
		}
		heap.Fix(&g.heap, 0)
	}
	return n
}

// emitPageView issues one page view's bid requests (one per ad slot).
func (g *Generator) emitPageView(u *userState, tNanos int64, fn func(adplatform.BidRequest)) int {
	ex, ok := g.pickExchange(tNanos)
	if !ok {
		return 0
	}
	slots := g.spec.MinSlots
	if g.spec.MaxSlots > g.spec.MinSlots {
		slots += g.rng.Intn(g.spec.MaxSlots - g.spec.MinSlots + 1)
	}
	publisher := int64(1 + g.rng.Intn(200))
	for s := 0; s < slots; s++ {
		g.reqID++
		fn(adplatform.BidRequest{
			RequestID:   g.reqID,
			ExchangeID:  ex,
			UserID:      u.id,
			Country:     u.country,
			City:        u.city,
			PublisherID: publisher,
			TimeNanos:   tNanos + int64(s)*int64(time.Millisecond),
		})
	}
	return slots
}

// emitBotBurst issues one bot batch: BatchSize requests spread over a
// few milliseconds — scripted fake page views.
func (g *Generator) emitBotBurst(b *BotSpec, tNanos int64, fn func(adplatform.BidRequest)) int {
	ex, ok := g.pickExchange(tNanos)
	if !ok {
		return 0
	}
	for i := 0; i < b.BatchSize; i++ {
		g.reqID++
		fn(adplatform.BidRequest{
			RequestID:   g.reqID,
			ExchangeID:  ex,
			UserID:      b.UserID,
			Country:     "US",
			City:        "botville",
			PublisherID: 666,
			TimeNanos:   tNanos + int64(i)*int64(100*time.Microsecond),
		})
	}
	return b.BatchSize
}
