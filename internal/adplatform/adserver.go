package adplatform

import (
	"time"

	"scrub/internal/event"
	"scrub/internal/host"
)

// AdServer runs the filtering phase and the internal auction (paper §7):
// every active line item either survives filtering into the auction or
// produces an exclusion; the auction scores survivors with the server's
// targeting model and picks the highest adjusted bid.
type AdServer struct {
	agent     *host.Agent
	store     *ProfileStore
	model     TargetingModel
	lineItems []*LineItem

	// EmitExclusions controls whether exclusion events are logged (they
	// dominate event volume, as in production: "every bid request
	// produces tens of thousands of exclusions", §8.4).
	EmitExclusions bool
	// EmitAuctions controls auction-event logging (§8.5).
	EmitAuctions bool
}

// NewAdServer builds an AdServer around its embedded agent.
func NewAdServer(agent *host.Agent, store *ProfileStore, model TargetingModel, lineItems []*LineItem) *AdServer {
	return &AdServer{
		agent: agent, store: store, model: model, lineItems: lineItems,
		EmitExclusions: true, EmitAuctions: true,
	}
}

// Agent exposes the embedded Scrub agent.
func (s *AdServer) Agent() *host.Agent { return s.agent }

// filter applies the filtering-phase checks in their production order;
// the first failing check names the exclusion reason.
func (s *AdServer) filter(li *LineItem, req BidRequest, profile UserProfile, now time.Time) (ExclusionReason, bool) {
	switch {
	case li.Paused:
		return ExclPaused, false
	case !li.matchesGeo(req.Country):
		return ExclGeo, false
	case !li.matchesExchange(req.ExchangeID):
		return ExclExchange, false
	case !li.matchesSegments(profile.Segments):
		return ExclSegment, false
	case li.exhausted():
		return ExclBudget, false
	case li.FrequencyCap > 0 && s.store.ServeCount(req.UserID, li.ID, now) >= li.FrequencyCap:
		return ExclFrequencyCap, false
	default:
		return "", true
	}
}

// RunAuction filters line items and runs the internal auction, logging
// exclusion and auction events along the way.
func (s *AdServer) RunAuction(req BidRequest) AuctionResult {
	now := time.Unix(0, req.TimeNanos)
	profile := s.store.Get(req.UserID)

	res := AuctionResult{}
	for _, li := range s.lineItems {
		if reason, ok := s.filter(li, req, profile, now); !ok {
			res.Exclusions = append(res.Exclusions, Exclusion{LineItemID: li.ID, Reason: reason})
			if s.EmitExclusions {
				s.agent.Log(event.NewBuilder(ExclusionEventSchema).
					SetRequestID(req.RequestID).SetTimeNanos(req.TimeNanos).
					Int("line_item_id", li.ID).
					Str("reason", string(reason)).
					Int("exchange_id", req.ExchangeID).
					Int("publisher_id", req.PublisherID).
					MustBuild())
			}
			continue
		}
		score := s.model.Score(profile, li)
		res.Candidates = append(res.Candidates, Candidate{
			LineItem: li,
			Score:    score,
			BidPrice: priceForScore(li.AdvisoryPrice, score),
		})
	}

	// Highest adjusted bid wins; ties break to the lower id for
	// determinism.
	for i := range res.Candidates {
		c := &res.Candidates[i]
		w := res.Winner
		if w == nil || c.BidPrice > w.BidPrice ||
			(c.BidPrice == w.BidPrice && c.LineItem.ID < w.LineItem.ID) {
			res.Winner = c
		}
	}

	if s.EmitAuctions && len(res.Candidates) > 0 {
		ids := make([]int64, len(res.Candidates))
		prices := make([]float64, len(res.Candidates))
		for i, c := range res.Candidates {
			ids[i] = c.LineItem.ID
			prices[i] = c.BidPrice
		}
		b := event.NewBuilder(AuctionEventSchema).
			SetRequestID(req.RequestID).SetTimeNanos(req.TimeNanos).
			Set("line_item_ids", event.IntList(ids...)).
			Set("bid_prices", event.FloatList(prices...)).
			Int("num_candidates", int64(len(res.Candidates))).
			Int("exchange_id", req.ExchangeID)
		if res.Winner != nil {
			b.Int("winner_line_item_id", res.Winner.LineItem.ID).
				Float("winner_bid_price", res.Winner.BidPrice)
		}
		s.agent.Log(b.MustBuild())
	}
	return res
}
