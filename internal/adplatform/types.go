// Package adplatform simulates the online advertisement bidding platform
// Scrub was built for (paper §7): BidServers receive bid requests from ad
// exchanges, AdServers run the filtering phase (producing exclusions) and
// the internal auction over line items, and PresentationServers record
// impressions and clicks, updating user profiles in the ProfileStore.
//
// The paper evaluates Scrub on Turn's production platform — thousands of
// machines, millions of requests per second. That substrate is not
// available, so this package reproduces its *behavioral shape*: the same
// event types at the same relative volumes (a bid request fans out to
// many exclusions, a few auction candidates, occasional impressions and
// rare clicks), the same state dependencies (frequency caps read/write
// user profiles), and the same failure modes the case studies
// investigate (spam bots, exchange onboarding, A/B model differences,
// cannibalization, corrupt profile data).
package adplatform

import "sync/atomic"

// ExclusionReason labels why the filtering phase removed a line item from
// a bid request's auction.
type ExclusionReason string

// Exclusion reasons, mirroring the filtering phase's checks.
const (
	ExclGeo          ExclusionReason = "geo_mismatch"
	ExclExchange     ExclusionReason = "exchange_mismatch"
	ExclSegment      ExclusionReason = "segment_mismatch"
	ExclBudget       ExclusionReason = "budget_exhausted"
	ExclFrequencyCap ExclusionReason = "frequency_cap"
	ExclPaused       ExclusionReason = "paused"
)

// BidRequest is one ad opportunity arriving from an exchange.
type BidRequest struct {
	RequestID   uint64
	ExchangeID  int64
	UserID      int64
	Country     string
	City        string
	PublisherID int64
	TimeNanos   int64 // event (virtual) time
}

// Campaign groups line items under one advertiser budget.
type Campaign struct {
	ID           int64
	AdvertiserID int64
}

// LineItem is one deliverable ad with its targeting and economics.
type LineItem struct {
	ID         int64
	CampaignID int64

	// Targeting criteria: empty slice means "any".
	Countries []string
	Exchanges []int64
	Segments  []int64 // user must have at least one

	// AdvisoryPrice is the preconfigured bid price; the auction adjusts
	// it by the model score so actual bids move in a narrow band around
	// it (paper §8.5).
	AdvisoryPrice float64

	// FrequencyCap bounds ads shown per user per day (0 = uncapped).
	FrequencyCap int

	// Budget is the remaining spend in micro-dollars; hitting zero
	// excludes the line item. Accessed atomically.
	budgetMicros atomic.Int64

	Paused bool
}

// SetBudget initializes the remaining budget in whole dollars.
func (li *LineItem) SetBudget(dollars float64) {
	li.budgetMicros.Store(int64(dollars * 1e6))
}

// spend decrements the budget by cost dollars; it reports false when the
// budget was already exhausted.
func (li *LineItem) spend(cost float64) bool {
	return li.budgetMicros.Add(-int64(cost*1e6)) > 0
}

func (li *LineItem) exhausted() bool { return li.budgetMicros.Load() <= 0 }

// matchesGeo checks the country criterion.
func (li *LineItem) matchesGeo(country string) bool {
	if len(li.Countries) == 0 {
		return true
	}
	for _, c := range li.Countries {
		if c == country {
			return true
		}
	}
	return false
}

// matchesExchange checks the exchange criterion.
func (li *LineItem) matchesExchange(ex int64) bool {
	if len(li.Exchanges) == 0 {
		return true
	}
	for _, e := range li.Exchanges {
		if e == ex {
			return true
		}
	}
	return false
}

// matchesSegments checks the audience criterion against a user's
// segments.
func (li *LineItem) matchesSegments(userSegs []int64) bool {
	if len(li.Segments) == 0 {
		return true
	}
	for _, want := range li.Segments {
		for _, have := range userSegs {
			if want == have {
				return true
			}
		}
	}
	return false
}

// Exclusion is one filtering-phase rejection.
type Exclusion struct {
	LineItemID int64
	Reason     ExclusionReason
}

// Candidate is a line item that survived filtering, with its auction
// pricing.
type Candidate struct {
	LineItem *LineItem
	Score    float64 // model score in (0,1)
	BidPrice float64 // advisory price adjusted by score
}

// AuctionResult is the internal auction's outcome for one bid request.
type AuctionResult struct {
	Candidates []Candidate
	Exclusions []Exclusion
	Winner     *Candidate // nil when no line item survived
}

// BidResponse is what a BidServer returns to the exchange.
type BidResponse struct {
	RequestID  uint64
	LineItemID int64
	CampaignID int64
	BidPrice   float64
	ModelName  string
}
