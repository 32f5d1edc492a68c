// Command metricssmoke is the CI gate for the observability surface: it
// builds scrubcentral, scrubd and scrubql and boots, on ephemeral ports
// with -metrics enabled, a plain scrubcentral (the single node: one kernel
// behind the merger), a scrubcentral in shard mode (the tier that holds
// the window state in a distributed deployment) and a coordinator over it,
// the two executors each with a demo agent. It
// scrapes every /metrics endpoint and fails if a required series family is
// missing, any series is duplicated, the exposition is malformed, a tier
// exports another tier's series (ingest is the merger's, window state the
// shard's), or /debug/pprof is absent. Then it runs one query through
// each executor and fails if an ingest series did not move: the merger
// counts batches in every deployment shape. The query has a predicate, and
// while it runs the agent must show its shared query index:
// scrub_host_program_nodes above zero for the event type, and
// scrub_host_index_rebuilds_total counting the install; once the query
// has shipped, scrub_host_ship_bytes_total must have moved too. A top_k
// query follows on each executor: while it runs, the tier that holds its
// windows must show scrub_central_state_bytes above its idle value — the
// window's one group is a sketch, which the gauge counts — and be back at
// it once the query has stopped. While each query runs, its executor must
// serve the query's scrub_central_query_late_drops_total series, and must
// have dropped it once the last query stopped. Both executors serve the
// client hub, and must export its scrub_server_slow_client_closes_total.
//
// Run it from the repo root (make metrics-smoke does):
//
//	go run ./scripts/metricssmoke
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"scrub/scripts/daemon"
)

// required lists the metric families each daemon must expose at boot
// (histograms appear as their _count series). Everything here is
// registered at construction time, so a fresh daemon with no queries
// still exposes all of it at value zero.
var requiredCentral = append(requiredCoord, requiredShard...)

// requiredCoord is what a merger and the client hub in front of it
// expose, and all a coordinator does: it holds no window state. Every
// scrubcentral that serves a hub counts the clients it cut off for
// falling behind, and every merger the tuples of batches for a query id
// it does not run.
var requiredCoord = append(moving,
	"scrub_central_unknown_query_tuples_total",
	"scrub_central_windows_total",
	"scrub_central_degraded_windows_total",
	"scrub_central_shed_windows_total",
	"scrub_central_window_close_ns_count",
	"scrub_transport_frames_recv_total",
	"scrub_server_slow_client_closes_total",
)

// moving are the ingest series: non-zero on every executor's endpoint
// once a query has shipped tuples.
var moving = []string{
	"scrub_central_batches_total",
	"scrub_central_tuples_total",
	"scrub_central_watermark_lag_ns",
}

// requiredShard is what a shard process exposes: the gauges of the window
// state it holds, and nothing of ingest.
var requiredShard = []string{
	"scrub_central_join_pending",
	"scrub_central_state_bytes",
}

var forbiddenShard = []string{
	"scrub_central_batches_total",
	"scrub_central_tuples_total",
	"scrub_central_unknown_query_tuples_total",
	"scrub_central_windows_total",
}

var requiredHost = []string{
	"scrub_host_logged_total",
	"scrub_host_matched_total",
	"scrub_host_shipped_total",
	"scrub_host_queue_drops_total",
	"scrub_host_sink_errors_total",
	"scrub_host_sink_error_tuples_total",
	"scrub_host_chunk_fills_total",
	"scrub_host_ship_bytes_total",
	"scrub_host_governor_downsamples_total",
	"scrub_host_governor_recovers_total",
	"scrub_host_governor_sheds_total",
	"scrub_host_index_rebuilds_total",
	"scrub_host_log_ns_count",
	"scrub_host_spill_depth",
	"scrub_host_spill_drops_total",
	"scrub_host_data_reconnects_total",
	"scrub_host_control_reconnects_total",
	"scrub_transport_frames_sent_total",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "metrics-smoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("metrics-smoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "metricssmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	if err := daemon.Build(tmp); err != nil {
		return err
	}
	var daemons []*daemon.Daemon
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	// boot starts a daemon and returns what it printed after each prefix,
	// in the order the daemon prints them.
	boot := func(bin string, args []string, prefixes ...string) ([]string, error) {
		d := daemon.New(filepath.Join(tmp, bin), args...)
		if err := d.Start(); err != nil {
			return nil, err
		}
		daemons = append(daemons, d)
		var out []string
		for _, prefix := range prefixes {
			v, err := d.Await(prefix)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}

	shard, err := boot("scrubcentral", []string{"-adplatform", "-shard", "127.0.0.1:0", "-metrics", "127.0.0.1:0"},
		"scrubcentral metrics: ", "  shard rpc: ")
	if err != nil {
		return err
	}
	shardMetrics := shard[0]

	// An executor of each kind with a demo agent shipping to it: central is
	// {metrics URL, client addr}, hostMetrics the agent's URL.
	stack := func(host string, mode ...string) (central []string, hostMetrics string, err error) {
		central, err = boot("scrubcentral", append([]string{"-adplatform",
			"-client", "127.0.0.1:0", "-control", "127.0.0.1:0", "-data", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}, mode...),
			"scrubcentral metrics: ", "  client:  ", "  control: ", "  data:    ")
		if err != nil {
			return nil, "", err
		}
		agent, err := boot("scrubd", []string{"-host", host, "-service", "BidServers", "-adplatform",
			"-control", central[2], "-data", central[3], "-demo", "bid=200", "-metrics", "127.0.0.1:0"},
			"scrubd metrics: ", "scrubd up:")
		if err != nil {
			return nil, "", err
		}
		return central, agent[0], nil
	}
	single, hostMetrics, err := stack("smoke-1")
	if err != nil {
		return err
	}
	coordinator, coordHostMetrics, err := stack("smoke-2", "-coord", "-shard-addrs", shard[1])
	if err != nil {
		return err
	}

	// Let the agents connect and ship a heartbeat or two.
	time.Sleep(300 * time.Millisecond)

	if err := checkMetrics("scrubcentral", single[0], requiredCentral, nil); err != nil {
		return err
	}
	if err := checkMetrics("scrubcentral -coord", coordinator[0], requiredCoord, requiredShard); err != nil {
		return err
	}
	if err := checkMetrics("scrubd", hostMetrics, requiredHost, nil); err != nil {
		return err
	}
	if err := checkMetrics("scrubcentral -shard", shardMetrics, requiredShard, forbiddenShard); err != nil {
		return err
	}
	for _, u := range []string{single[0], coordinator[0], hostMetrics, shardMetrics} {
		if err := checkPprof(u); err != nil {
			return err
		}
	}

	// One query through each executor, to its first window.
	// state is the endpoint of the tier that holds the executor's windows.
	for _, ex := range []struct{ who, metrics, client, host, state string }{
		{"scrubcentral", single[0], single[1], hostMetrics, single[0]},
		{"scrubcentral -coord", coordinator[0], coordinator[1], coordHostMetrics, shardMetrics},
	} {
		idle, _, err := scrape(ex.who, ex.state)
		if err != nil {
			return err
		}
		ql := exec.Command(filepath.Join(tmp, "scrubql"), "-server", ex.client, "-windows", "1", "-quiet",
			"select count(*) from bid where bid.user_id >= 0 window 1s duration 10s")
		var out bytes.Buffer
		ql.Stdout, ql.Stderr = &out, &out
		if err := ql.Start(); err != nil {
			return fmt.Errorf("%s: query: %w", ex.who, err)
		}
		indexErr := awaitIndex(ex.who+"'s scrubd", ex.host)
		seriesErr := awaitSeries(ex.who, ex.metrics, perQuery, true)
		if err := ql.Wait(); err != nil {
			return fmt.Errorf("%s: query: %w\n%s", ex.who, err, out.Bytes())
		}
		if indexErr != nil {
			return indexErr
		}
		if seriesErr != nil {
			return seriesErr
		}
		values, _, err := scrape(ex.who, ex.metrics)
		if err != nil {
			return err
		}
		for _, name := range moving {
			if values[name] == 0 {
				return fmt.Errorf("%s: %s is still 0 after a query shipped tuples", ex.who, name)
			}
		}
		// What the agent charged the governor for those batches: sized by
		// arithmetic, so a size function gone wrong shows here as 0.
		hostValues, _, err := scrape(ex.who+"'s scrubd", ex.host)
		if err != nil {
			return err
		}
		if hostValues["scrub_host_ship_bytes_total"] == 0 {
			return fmt.Errorf("%s's scrubd: scrub_host_ship_bytes_total is still 0 after its query shipped tuples", ex.who)
		}
		fmt.Printf("metrics-smoke: %s ingest series moved (%v tuples in %v batches, %v bytes charged on the host)\n",
			ex.who, values["scrub_central_tuples_total"], values["scrub_central_batches_total"], hostValues["scrub_host_ship_bytes_total"])

		topk := exec.Command(filepath.Join(tmp, "scrubql"), "-server", ex.client, "-windows", "1", "-quiet",
			"select top_k(bid.user_id, 10) from bid window 1s duration 10s")
		out.Reset()
		topk.Stdout, topk.Stderr = &out, &out
		if err := topk.Start(); err != nil {
			return fmt.Errorf("%s: top_k query: %w", ex.who, err)
		}
		const gauge = "scrub_central_state_bytes"
		held, stateErr := awaitGauge(ex.who, ex.state, gauge, func(v float64) bool { return v > idle[gauge] })
		seriesErr = awaitSeries(ex.who, ex.metrics, perQuery, true)
		if err := topk.Wait(); err != nil {
			return fmt.Errorf("%s: top_k query: %w\n%s", ex.who, err, out.Bytes())
		}
		if stateErr != nil {
			return fmt.Errorf("%w while a top_k query ran (idle %v)", stateErr, idle[gauge])
		}
		if seriesErr != nil {
			return seriesErr
		}
		if _, err := awaitGauge(ex.who, ex.state, gauge, func(v float64) bool { return v == idle[gauge] }); err != nil {
			return fmt.Errorf("%w after the top_k query stopped (idle %v)", err, idle[gauge])
		}
		if err := awaitSeries(ex.who, ex.metrics, perQuery, false); err != nil {
			return fmt.Errorf("%w after the last query stopped", err)
		}
		fmt.Printf("metrics-smoke: %s counted a top_k window's state (%v bytes) and gave it back\n", ex.who, held-idle[gauge])
	}
	return nil
}

// perQuery is a series the merger serves for each running query, in every
// executor shape, and unregisters when the query stops.
const perQuery = "scrub_central_query_late_drops_total"

// awaitSeries polls an endpoint until series name is served (want) or is
// not (!want). The queries last a second or two, so three are ample.
func awaitSeries(who, url, name string, want bool) error {
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		values, _, err := scrape(who, url)
		if err != nil {
			return err
		}
		if _, ok := values[name]; ok == want {
			return nil
		}
	}
	return fmt.Errorf("%s: %s served = %v, want %v", who, name, !want, want)
}

// awaitGauge polls an endpoint until series name satisfies ok and returns
// its value then. The queries last a second or two, so three are ample.
func awaitGauge(who, url, name string, ok func(float64) bool) (float64, error) {
	var v float64
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		values, _, err := scrape(who, url)
		if err != nil {
			return 0, err
		}
		if v = values[name]; ok(v) {
			return v, nil
		}
	}
	return v, fmt.Errorf("%s: %s = %v", who, name, v)
}

// awaitIndex polls an agent's endpoint until the running query shows in
// its index series: a non-empty program for some event type and at least
// one rebuild. The query lasts a second, so two are ample.
func awaitIndex(who, url string) error {
	var nodes, rebuilds float64
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		values, _, err := scrape(who, url)
		if err != nil {
			return err
		}
		nodes, rebuilds = values["scrub_host_program_nodes"], values["scrub_host_index_rebuilds_total"]
		if nodes > 0 && rebuilds > 0 {
			fmt.Printf("metrics-smoke: %s shows its query index (%v program nodes, %v rebuilds)\n", who, nodes, rebuilds)
			return nil
		}
	}
	return fmt.Errorf("%s: a query with a predicate is running but scrub_host_program_nodes = %v, scrub_host_index_rebuilds_total = %v", who, nodes, rebuilds)
}

// scrape fetches url and validates the exposition — no duplicate series,
// every sample line well-formed — returning each family's summed value and
// the series count.
func scrape(who, url string) (map[string]float64, int, error) {
	body, err := get(url)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: scrape %s: %w", who, url, err)
	}
	series := make(map[string]bool) // full series key: name{labels}
	families := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// name{labels} value  |  name value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, 0, fmt.Errorf("%s: malformed exposition line %q", who, line)
		}
		key := line[:sp]
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		value, err := strconv.ParseFloat(line[sp+1:], 64)
		if name == "" || err != nil {
			return nil, 0, fmt.Errorf("%s: malformed exposition line %q", who, line)
		}
		if series[key] {
			return nil, 0, fmt.Errorf("%s: duplicate series %q", who, key)
		}
		series[key] = true
		families[name] += value
	}
	return families, len(series), nil
}

// checkMetrics scrapes url and requires every family in required and none
// in forbidden.
func checkMetrics(who, url string, required, forbidden []string) error {
	families, series, err := scrape(who, url)
	if err != nil {
		return err
	}
	var missing []string
	for _, name := range required {
		if _, ok := families[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: missing metric families %v (got %d series)", who, missing, series)
	}
	for _, name := range forbidden {
		if _, ok := families[name]; ok {
			return fmt.Errorf("%s: exposes %s, which belongs to another tier", who, name)
		}
	}
	fmt.Printf("metrics-smoke: %s exposes %d series, all %d required families present\n",
		who, series, len(required))
	return nil
}

// checkPprof verifies the pprof index responds next to /metrics.
func checkPprof(metricsURL string) error {
	u := strings.TrimSuffix(metricsURL, "/metrics") + "/debug/pprof/cmdline"
	if _, err := get(u); err != nil {
		return fmt.Errorf("pprof endpoint %s: %w", u, err)
	}
	return nil
}

func get(url string) (string, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
