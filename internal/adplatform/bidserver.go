package adplatform

import (
	"scrub/internal/event"
	"scrub/internal/host"
)

// BidServer fronts the exchanges: it receives bid requests, consults an
// AdServer for filtering and the internal auction, and returns the bid
// response — all inside the exchange's latency budget (paper §7: the
// whole transaction completes in under 20ms). The bid event (Figure 1)
// is logged here.
type BidServer struct {
	agent *host.Agent
}

// NewBidServer builds a BidServer around its embedded agent.
func NewBidServer(agent *host.Agent) *BidServer {
	return &BidServer{agent: agent}
}

// Respond turns an auction result into a bid response (or a no-bid) and
// logs the bid event.
func (s *BidServer) Respond(req BidRequest, auction AuctionResult, modelName string) (BidResponse, bool) {
	if auction.Winner == nil {
		return BidResponse{}, false
	}
	w := auction.Winner
	resp := BidResponse{
		RequestID:  req.RequestID,
		LineItemID: w.LineItem.ID,
		CampaignID: w.LineItem.CampaignID,
		BidPrice:   w.BidPrice,
		ModelName:  modelName,
	}
	s.agent.Log(event.NewBuilder(BidEventSchema).
		SetRequestID(req.RequestID).SetTimeNanos(req.TimeNanos).
		Int("exchange_id", req.ExchangeID).
		Int("user_id", req.UserID).
		Str("city", req.City).
		Str("country", req.Country).
		Float("bid_price", resp.BidPrice).
		Int("campaign_id", resp.CampaignID).
		Int("line_item_id", resp.LineItemID).
		Str("model", modelName).
		MustBuild())
	return resp, true
}
