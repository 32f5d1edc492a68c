package adplatform

import (
	"time"

	"scrub/internal/event"
	"scrub/internal/host"
)

// PresentationServer handles post-bid outcomes (paper §7): when the
// exchange's external auction is won, the ad is shown — an impression —
// and the user's profile serve count is updated in the ProfileStore; if
// the user interacts, a click follows. Both are logged as Scrub events.
type PresentationServer struct {
	agent *host.Agent
	store *ProfileStore

	// ExternalWinRate is the probability a bid wins the exchange's
	// auction and becomes an impression. Default 0.10.
	ExternalWinRate float64
	// ClearingFactor scales the bid price to the charged cost (second-
	// price-ish). Default 0.85.
	ClearingFactor float64
}

// NewPresentationServer builds a PresentationServer around its agent.
func NewPresentationServer(agent *host.Agent, store *ProfileStore) *PresentationServer {
	return &PresentationServer{
		agent: agent, store: store,
		ExternalWinRate: 0.10, ClearingFactor: 0.85,
	}
}

// detRand returns a deterministic pseudo-uniform in [0,1) keyed by the
// request and a salt, so simulations replay identically under any
// concurrency.
func detRand(reqID uint64, salt uint64) float64 {
	x := reqID*0x9E3779B97F4A7C15 ^ salt*0xD6E8FEB86659FD93
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return float64(x%(1<<53)) / (1 << 53)
}

// Outcome reports what happened to a served bid.
type Outcome struct {
	Impression bool
	Click      bool
	Cost       float64 // dollars charged for the impression
	ServeCount int     // the user's serve count after this impression
}

// HandleBid resolves a bid response: external auction, impression,
// profile update, budget spend, and the click draw — logging impression
// and click events.
func (s *PresentationServer) HandleBid(req BidRequest, resp BidResponse, li *LineItem, model TargetingModel) Outcome {
	var out Outcome
	if detRand(req.RequestID, 1) >= s.ExternalWinRate {
		return out // lost the exchange auction: no impression
	}
	out.Impression = true
	out.Cost = resp.BidPrice * s.ClearingFactor
	now := time.Unix(0, req.TimeNanos)

	out.ServeCount = s.store.RecordServe(req.UserID, li.ID, now)
	li.spend(out.Cost)

	s.agent.Log(event.NewBuilder(ImpressionEventSchema).
		SetRequestID(req.RequestID).SetTimeNanos(req.TimeNanos).
		Int("line_item_id", li.ID).
		Int("exchange_id", req.ExchangeID).
		Int("user_id", req.UserID).
		Float("cost", out.Cost).
		Str("model", resp.ModelName).
		Int("serve_count", int64(out.ServeCount)).
		MustBuild())

	profile := s.store.Get(req.UserID)
	if detRand(req.RequestID, 2) < model.CTR(profile, li) {
		out.Click = true
		s.agent.Log(event.NewBuilder(ClickEventSchema).
			SetRequestID(req.RequestID).SetTimeNanos(req.TimeNanos).
			Int("line_item_id", li.ID).
			Int("exchange_id", req.ExchangeID).
			Int("user_id", req.UserID).
			Str("model", resp.ModelName).
			MustBuild())
	}
	return out
}
