// Package cluster models the deployment Scrub queries target: hosts
// grouped into services (BidServers, AdServers, PresentationServers, ...)
// and data centers. The query language's `@[...]` construct resolves
// against this registry, which is how Scrub limits query execution to the
// specified hosts instead of filtering on a host-name column — the query
// never even reaches uninvolved machines (paper §3.2).
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"scrub/internal/ql"
)

// HostInfo describes one application host running a Scrub agent.
type HostInfo struct {
	Name    string // unique host name, e.g. "bid-sj-007"
	Service string // logical service, e.g. "BidServers"
	DC      string // data center, e.g. "DC1"
	Addr    string // agent control address (host:port), empty in-process
}

// Registry is a thread-safe host directory. In production this would be
// fed from a coordination service (the paper's deployment uses
// ZooKeeper-backed membership); here hosts register themselves when their
// agent starts.
type Registry struct {
	mu    sync.RWMutex
	hosts map[string]HostInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hosts: make(map[string]HostInfo)}
}

// Register adds or updates a host. Name and Service must be non-empty.
func (r *Registry) Register(h HostInfo) error {
	if h.Name == "" {
		return fmt.Errorf("cluster: empty host name")
	}
	if h.Service == "" {
		return fmt.Errorf("cluster: host %q has empty service", h.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hosts[h.Name] = h
	return nil
}

// Deregister removes a host; unknown names are a no-op.
func (r *Registry) Deregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.hosts, name)
}

// Len returns the number of registered hosts.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.hosts)
}

// Resolve returns the hosts matching a target spec, sorted by name.
// Criteria are conjunctive across clause kinds (Service AND Server AND
// DC), disjunctive within a list, matching the query language semantics.
// An empty spec (or All) matches every host. Unknown names simply match
// nothing; the query server reports empty target sets to the user.
func (r *Registry) Resolve(t ql.TargetSpec) []HostInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()

	services := toSet(t.Services)
	servers := toSet(t.Servers)

	var out []HostInfo
	for _, h := range r.hosts {
		if len(services) > 0 && !services[h.Service] {
			continue
		}
		if len(servers) > 0 && !servers[h.Name] {
			continue
		}
		if t.DC != "" && h.DC != t.DC {
			continue
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names extracts the host names from a HostInfo slice.
func Names(hosts []HostInfo) []string {
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = h.Name
	}
	return out
}

func toSet(xs []string) map[string]bool {
	if len(xs) == 0 {
		return nil
	}
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}
