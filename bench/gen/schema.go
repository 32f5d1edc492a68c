// Package gen builds every input the benchmark feeds the pipeline —
// events, tuple batches, query sets and the reference counts the
// correctness gate compares against — from one seed. The same seed always
// yields byte-identical content (see Hash on each input); the program
// under test never sees the seed, only what was generated from it.
//
// Content is generated before timing starts. What the load generator adds
// while it runs is what a real application adds when it logs: the
// creation timestamp and a fresh request identifier (Stamp). Both are
// pure functions of the event's position in the run, so a run is
// reproducible, but they are not stored: the content pool is replayed
// cyclically so that the live heap during measurement is the system's
// state, not gigabytes of pre-built input whose GC scanning would drown
// the thing being measured.
package gen

import (
	"math/rand"

	"scrub/internal/event"
)

// Input-shape constants. Users is the zipfian key space the issue fixes
// (s≈1.1 over 100k users); UserBits is how many low bits of a request id
// carry the user, so hash(request id) mod shards inherits the user skew.
const (
	Users     = 100_000
	ZipfS     = 1.1
	Exchanges = 10
	Campaigns = 1024
	LineItems = 150
	UserBits  = 17
)

// Field positions in the bid schema, used by the reference predicates.
const (
	fExchange = iota
	fUser
	fCity
	fCountry
	fPrice
	fCampaign
	fLineItem
	fModel
)

var (
	// BidSchema and ExclusionSchema mirror the ad platform's event types
	// (paper Figure 1, §8.4) field for field.
	BidSchema = event.MustSchema("bid",
		event.FieldDef{Name: "exchange_id", Kind: event.KindInt},
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "city", Kind: event.KindString},
		event.FieldDef{Name: "country", Kind: event.KindString},
		event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
		event.FieldDef{Name: "campaign_id", Kind: event.KindInt},
		event.FieldDef{Name: "line_item_id", Kind: event.KindInt},
		event.FieldDef{Name: "model", Kind: event.KindString},
	)
	ExclusionSchema = event.MustSchema("exclusion",
		event.FieldDef{Name: "line_item_id", Kind: event.KindInt},
		event.FieldDef{Name: "reason", Kind: event.KindString},
		event.FieldDef{Name: "exchange_id", Kind: event.KindInt},
		event.FieldDef{Name: "publisher_id", Kind: event.KindInt},
	)
)

// Catalog returns a fresh catalog holding the two benchmark event types.
func Catalog() *event.Catalog {
	cat := event.NewCatalog()
	cat.MustRegister(BidSchema)
	cat.MustRegister(ExclusionSchema)
	return cat
}

var (
	countries = []string{"US", "US", "US", "US", "US", "US", "GB", "GB", "DE", "DE", "FR", "IN", "IN", "JP", "BR", "CA"}
	models    = []string{"ctr-v3", "ctr-v4", "cvr-v2", "baseline"}
	reasons   = []string{"budget", "frequency_cap", "geo", "blocklist", "pacing", "creative"}
	cities    = func() []string {
		out := make([]string, 32)
		for i := range out {
			out[i] = "city-" + string(rune('a'+i/8)) + string(rune('a'+i%8))
		}
		return out
	}()
)

// source bundles the seeded streams one input draws from.
type source struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newSource(seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	return &source{rng: rng, zipf: rand.NewZipf(rng, ZipfS, 1, Users-1)}
}

func (s *source) user() uint64 { return s.zipf.Uint64() }

// bidValues draws one bid event's field values for the given user.
func (s *source) bidValues(user uint64) []event.Value {
	return []event.Value{
		fExchange: event.Int(int64(s.rng.Intn(Exchanges))),
		fUser:     event.Int(int64(user)),
		fCity:     event.Str(cities[s.rng.Intn(len(cities))]),
		fCountry:  event.Str(countries[s.rng.Intn(len(countries))]),
		fPrice:    event.Float(float64(s.rng.Intn(100000)) / 10000),
		fCampaign: event.Int(int64(s.rng.Intn(Campaigns))),
		fLineItem: event.Int(int64(s.rng.Intn(LineItems))),
		fModel:    event.Str(models[s.rng.Intn(len(models))]),
	}
}

// exclusionValues draws one exclusion event's values; the exchange is the
// owning bid's.
func (s *source) exclusionValues(exchange event.Value) []event.Value {
	return []event.Value{
		event.Int(int64(s.rng.Intn(LineItems))),
		event.Str(reasons[s.rng.Intn(len(reasons))]),
		exchange,
		event.Int(int64(s.rng.Intn(500))),
	}
}

// RequestID composes the identifier the generator stamps on a request:
// a run-unique ordinal in the high bits, the (zipfian) user in the low
// UserBits. Identifiers stay unique — the equi-join needs that — while
// request-id mod n routing sees the user skew.
func RequestID(ordinal, user uint64) uint64 { return ordinal<<UserBits | user }
