package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"scrub/internal/ql"
)

func demoRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	add := func(name, service, dc string) {
		t.Helper()
		if err := r.Register(HostInfo{Name: name, Service: service, DC: dc}); err != nil {
			t.Fatal(err)
		}
	}
	add("bid-sj-1", "BidServers", "DC1")
	add("bid-sj-2", "BidServers", "DC1")
	add("bid-ny-1", "BidServers", "DC2")
	add("ad-sj-1", "AdServers", "DC1")
	add("pres-sj-1", "PresentationServers", "DC1")
	add("pres-ny-1", "PresentationServers", "DC2")
	return r
}

// lookup finds one host by name through Resolve.
func lookup(r *Registry, name string) (HostInfo, bool) {
	hs := r.Resolve(ql.TargetSpec{Servers: []string{name}})
	if len(hs) == 0 {
		return HostInfo{}, false
	}
	return hs[0], true
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(HostInfo{Service: "X"}); err == nil {
		t.Error("empty name should fail")
	}
	if err := r.Register(HostInfo{Name: "h"}); err == nil {
		t.Error("empty service should fail")
	}
}

func TestLookupAndDeregister(t *testing.T) {
	r := demoRegistry(t)
	if h, ok := lookup(r, "ad-sj-1"); !ok || h.Service != "AdServers" {
		t.Errorf("Lookup = %+v, %v", h, ok)
	}
	if _, ok := lookup(r, "nope"); ok {
		t.Error("unknown lookup should miss")
	}
	r.Deregister("ad-sj-1")
	if _, ok := lookup(r, "ad-sj-1"); ok {
		t.Error("deregistered host still present")
	}
	r.Deregister("nope") // no-op
	if r.Len() != 5 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRegisterUpdatesInPlace(t *testing.T) {
	r := demoRegistry(t)
	if err := r.Register(HostInfo{Name: "bid-sj-1", Service: "BidServers", DC: "DC3"}); err != nil {
		t.Fatal(err)
	}
	if h, _ := lookup(r, "bid-sj-1"); h.DC != "DC3" {
		t.Error("re-register did not update")
	}
	if r.Len() != 6 {
		t.Errorf("Len = %d after update", r.Len())
	}
}

func TestAllAndServices(t *testing.T) {
	r := demoRegistry(t)
	all := r.Resolve(ql.TargetSpec{All: true})
	if len(all) != 6 {
		t.Fatalf("All = %d", len(all))
	}
	services := map[string]bool{}
	for i, h := range all {
		if i > 0 && h.Name <= all[i-1].Name {
			t.Error("All not sorted")
		}
		services[h.Service] = true
	}
	if len(services) != 3 || !services["AdServers"] || !services["BidServers"] || !services["PresentationServers"] {
		t.Errorf("Services = %v", services)
	}
}

func TestResolve(t *testing.T) {
	r := demoRegistry(t)
	cases := []struct {
		spec ql.TargetSpec
		want []string
	}{
		{ql.TargetSpec{All: true}, []string{"ad-sj-1", "bid-ny-1", "bid-sj-1", "bid-sj-2", "pres-ny-1", "pres-sj-1"}},
		{ql.TargetSpec{}, []string{"ad-sj-1", "bid-ny-1", "bid-sj-1", "bid-sj-2", "pres-ny-1", "pres-sj-1"}},
		{ql.TargetSpec{Services: []string{"BidServers"}}, []string{"bid-ny-1", "bid-sj-1", "bid-sj-2"}},
		{ql.TargetSpec{Services: []string{"BidServers"}, DC: "DC1"}, []string{"bid-sj-1", "bid-sj-2"}},
		{ql.TargetSpec{Services: []string{"BidServers"}, Servers: []string{"bid-sj-2"}}, []string{"bid-sj-2"}},
		{ql.TargetSpec{Servers: []string{"pres-ny-1", "ad-sj-1"}}, []string{"ad-sj-1", "pres-ny-1"}},
		{ql.TargetSpec{Services: []string{"AdServers", "PresentationServers"}, DC: "DC2"}, []string{"pres-ny-1"}},
		{ql.TargetSpec{DC: "DC9"}, nil},
		{ql.TargetSpec{Services: []string{"Ghost"}}, nil},
		{ql.TargetSpec{Services: []string{"BidServers"}, Servers: []string{"ad-sj-1"}}, nil},
	}
	for _, c := range cases {
		got := Names(r.Resolve(c.spec))
		if !reflect.DeepEqual(got, c.want) && !(len(got) == 0 && len(c.want) == 0) {
			t.Errorf("Resolve(%s) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestResolveMatchesQuerySyntax(t *testing.T) {
	// End-to-end: the paper's target expression resolves as expected.
	r := demoRegistry(t)
	q, err := ql.Parse(`select count(*) from bid @[Service in BidServers and Server = "bid-sj-1"]`)
	if err != nil {
		t.Fatal(err)
	}
	got := Names(r.Resolve(q.Target))
	if !reflect.DeepEqual(got, []string{"bid-sj-1"}) {
		t.Errorf("resolved = %v", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("h-%d-%d", w, i)
				_ = r.Register(HostInfo{Name: name, Service: "S", DC: "DC1"})
				lookup(r, name)
				r.Resolve(ql.TargetSpec{Services: []string{"S"}})
				if i%3 == 0 {
					r.Deregister(name)
				}
			}
		}(w)
	}
	wg.Wait()
}
