// Package metricname is golden-test input for the metricname analyzer.
// Registry stands in for obs.Registry: detection keys on the receiver
// type name, so the golden package needs no real obs dependency.
package metricname

type Registry struct{}

func (r *Registry) Counter(name, help string)               {}
func (r *Registry) Gauge(name, help string)                 {}
func (r *Registry) Histogram(name string, bounds []float64) {}

func register(r *Registry, dynamic string) {
	r.Counter("scrub_host_events_total", "ok")
	r.Counter("scrub_host_events", "x")      // want `must end in _total`
	r.Counter("events_total", "x")           // want `does not match scrub_`
	r.Counter("scrub_query_rows_total", "x") // want `does not match scrub_`
	r.Gauge("scrub_transport_conns", "ok")
	r.Counter("scrub_coord_merges_total", "ok")
	r.Gauge("scrub_coord_shards", "ok")
	r.Counter("scrub_server_slow_client_closes_total", "ok")
	r.Counter("scrub_server_closes", "x") // want `must end in _total`
	r.Histogram("scrub_central_merge_ns", nil)
	r.Histogram("scrub_central_merge", nil) // want `must carry a unit suffix`
	r.Counter(dynamic, "x")                 // want `must be a string literal`

	r.Counter("scrub_host_dup_total", "x")
	r.Counter("scrub_host_dup_total", "x") // want `already registered`
}
