package adplatform

import (
	"fmt"

	"scrub/internal/core"
	"scrub/internal/event"
	"scrub/internal/host"
)

// Service names used in the cluster registry; target specs in queries
// refer to these (e.g. `@[Service in BidServers]`).
const (
	ServiceBidServers          = "BidServers"
	ServiceAdServers           = "AdServers"
	ServicePresentationServers = "PresentationServers"
)

// Config parametrizes a simulated platform deployment.
type Config struct {
	NumBidServers          int
	NumAdServers           int
	NumPresentationServers int
	DC                     string // data center label, default "DC1"

	LineItems []*LineItem

	// ModelForAdServer assigns a targeting model per AdServer index —
	// the §8.3 A/B mechanism (different models on different machines).
	// Nil installs ImprovedModel everywhere.
	ModelForAdServer func(i int) TargetingModel

	// EmitExclusions / EmitAuctions forward to every AdServer.
	EmitExclusions bool
	EmitAuctions   bool

	// ExternalWinRate forwards to every PresentationServer (0 = default).
	ExternalWinRate float64

	// Agent forwards agent tuning (queue sizes, flush interval).
	Agent host.Config
	// AgentSink forwards core.LocalConfig.AgentSink (see there).
	AgentSink host.Sink
}

// Platform is a running simulated deployment: the Scrub cluster plus the
// application servers embedded in its hosts.
type Platform struct {
	Cluster *core.LocalCluster
	Catalog *event.Catalog
	Store   *ProfileStore

	BidServers  []*BidServer
	AdServers   []*AdServer
	PresServers []*PresentationServer
	LineItems   []*LineItem
}

// New builds and starts a platform.
func New(cfg Config) (*Platform, error) {
	if cfg.NumBidServers <= 0 || cfg.NumAdServers <= 0 || cfg.NumPresentationServers <= 0 {
		return nil, fmt.Errorf("adplatform: all server counts must be positive")
	}
	if len(cfg.LineItems) == 0 {
		return nil, fmt.Errorf("adplatform: no line items")
	}
	if cfg.DC == "" {
		cfg.DC = "DC1"
	}
	if cfg.ModelForAdServer == nil {
		m := ImprovedModel{}
		cfg.ModelForAdServer = func(int) TargetingModel { return m }
	}

	catalog := event.NewCatalog()
	RegisterEventTypes(catalog)

	var hosts []core.HostSpec
	bidHost := func(i int) string { return fmt.Sprintf("bid-%s-%03d", cfg.DC, i) }
	adHost := func(i int) string { return fmt.Sprintf("ad-%s-%03d", cfg.DC, i) }
	presHost := func(i int) string { return fmt.Sprintf("pres-%s-%03d", cfg.DC, i) }
	for i := 0; i < cfg.NumBidServers; i++ {
		hosts = append(hosts, core.HostSpec{Name: bidHost(i), Service: ServiceBidServers, DC: cfg.DC})
	}
	for i := 0; i < cfg.NumAdServers; i++ {
		hosts = append(hosts, core.HostSpec{Name: adHost(i), Service: ServiceAdServers, DC: cfg.DC})
	}
	for i := 0; i < cfg.NumPresentationServers; i++ {
		hosts = append(hosts, core.HostSpec{Name: presHost(i), Service: ServicePresentationServers, DC: cfg.DC})
	}

	cluster, err := core.NewLocalCluster(core.LocalConfig{
		Catalog:   catalog,
		Hosts:     hosts,
		Agent:     cfg.Agent,
		AgentSink: cfg.AgentSink,
	})
	if err != nil {
		return nil, err
	}

	p := &Platform{
		Cluster:   cluster,
		Catalog:   catalog,
		Store:     NewProfileStore(),
		LineItems: cfg.LineItems,
	}
	for i := 0; i < cfg.NumBidServers; i++ {
		agent, _ := cluster.Agent(bidHost(i))
		p.BidServers = append(p.BidServers, NewBidServer(agent))
	}
	for i := 0; i < cfg.NumAdServers; i++ {
		agent, _ := cluster.Agent(adHost(i))
		model := cfg.ModelForAdServer(i)
		as := NewAdServer(agent, p.Store, model, cfg.LineItems)
		as.EmitExclusions = cfg.EmitExclusions
		as.EmitAuctions = cfg.EmitAuctions
		p.AdServers = append(p.AdServers, as)
	}
	for i := 0; i < cfg.NumPresentationServers; i++ {
		agent, _ := cluster.Agent(presHost(i))
		ps := NewPresentationServer(agent, p.Store)
		if cfg.ExternalWinRate > 0 {
			ps.ExternalWinRate = cfg.ExternalWinRate
		}
		p.PresServers = append(p.PresServers, ps)
	}
	return p, nil
}

// route maps a request to its servers: bid servers by request hash; ad
// and presentation servers by user hash, so a user consistently sees one
// model and that model's impressions land on a fixed host set — which is
// what lets the §8.3 A/B queries target "the machines running model X".
func (p *Platform) route(req BidRequest) (*BidServer, *AdServer, *PresentationServer) {
	bs := p.BidServers[int(req.RequestID%uint64(len(p.BidServers)))]
	as := p.AdServers[int(uint64(req.UserID)%uint64(len(p.AdServers)))]
	ps := p.PresServers[int(uint64(req.UserID)%uint64(len(p.PresServers)))]
	return bs, as, ps
}

// Process runs one bid request through the full pipeline and returns the
// outcome. It is safe to call from multiple goroutines (load generators
// model concurrent exchange traffic).
func (p *Platform) Process(req BidRequest) (BidResponse, Outcome, bool) {
	bs, as, ps := p.route(req)
	auction := as.RunAuction(req)
	resp, ok := bs.Respond(req, auction, as.model.Name())
	if !ok {
		return BidResponse{}, Outcome{}, false
	}
	out := ps.HandleBid(req, resp, auction.Winner.LineItem, as.model)
	return resp, out, true
}

// PresentationHostsForModel returns the presentation hosts whose traffic
// was selected by the named model. Requires NumPresentationServers ==
// NumAdServers (both route by user hash, so host i of each service sees
// the same users); it returns nil otherwise.
func (p *Platform) PresentationHostsForModel(name string) []string {
	if len(p.PresServers) != len(p.AdServers) {
		return nil
	}
	var out []string
	for i, as := range p.AdServers {
		if as.model.Name() == name {
			out = append(out, p.PresServers[i].agent.ID())
		}
	}
	return out
}

// Close shuts the platform down.
func (p *Platform) Close() { p.Cluster.Close() }
