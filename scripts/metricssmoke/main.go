// Command metricssmoke is the CI gate for the observability surface: it
// builds scrubcentral and scrubd, boots them against each other on
// ephemeral ports with -metrics enabled — plus a scrubcentral in shard
// mode, the tier that holds the window state in a distributed deployment
// — scrapes every /metrics endpoint, and fails if a required series
// family is missing, any series is duplicated, the exposition is
// malformed, a shard exports an ingest series (those are the
// coordinator's), or /debug/pprof is absent.
//
// Run it from the repo root (make metrics-smoke does):
//
//	go run ./scripts/metricssmoke
package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// required lists the metric families each daemon must expose at boot
// (histograms appear as their _count series). Everything here is
// registered at construction time, so a fresh daemon with no queries
// still exposes all of it at value zero.
var requiredCentral = append([]string{
	"scrub_central_batches_total",
	"scrub_central_tuples_total",
	"scrub_central_windows_total",
	"scrub_central_degraded_windows_total",
	"scrub_central_shed_windows_total",
	"scrub_central_window_close_ns_count",
	"scrub_central_watermark_lag_ns",
	"scrub_transport_frames_recv_total",
}, requiredShard...)

// requiredShard is what a shard process exposes: the gauges of the window
// state it holds, and nothing of ingest.
var requiredShard = []string{
	"scrub_central_join_pending",
	"scrub_central_state_bytes",
	"scrub_central_windows_frozen",
	"scrub_central_window_thaws_total",
}

var forbiddenShard = []string{
	"scrub_central_batches_total",
	"scrub_central_tuples_total",
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

	for _, cmd := range []string{"scrubcentral", "scrubd"} {
		build := exec.Command("go", "build", "-o", filepath.Join(tmp, cmd), "./cmd/"+cmd)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s: %w", cmd, err)
		}
	}

	central := newDaemon(filepath.Join(tmp, "scrubcentral"),
		"-adplatform",
		"-client", "127.0.0.1:0", "-control", "127.0.0.1:0", "-data", "127.0.0.1:0",
		"-metrics", "127.0.0.1:0")
	if err := central.start(); err != nil {
		return err
	}
	defer central.stop()
	centralMetrics, err := central.await("scrubcentral metrics: ")
	if err != nil {
		return err
	}
	controlAddr, err := central.await("  control: ")
	if err != nil {
		return err
	}
	dataAddr, err := central.await("  data:    ")
	if err != nil {
		return err
	}

	scrubd := newDaemon(filepath.Join(tmp, "scrubd"),
		"-host", "smoke-1", "-service", "BidServers", "-adplatform",
		"-control", controlAddr, "-data", dataAddr,
		"-demo", "bid=200",
		"-metrics", "127.0.0.1:0")
	if err := scrubd.start(); err != nil {
		return err
	}
	defer scrubd.stop()
	hostMetrics, err := scrubd.await("scrubd metrics: ")
	if err != nil {
		return err
	}
	if _, err := scrubd.await("scrubd up:"); err != nil {
		return err
	}

	shard := newDaemon(filepath.Join(tmp, "scrubcentral"),
		"-adplatform", "-shard", "127.0.0.1:0", "-metrics", "127.0.0.1:0")
	if err := shard.start(); err != nil {
		return err
	}
	defer shard.stop()
	shardMetrics, err := shard.await("scrubcentral metrics: ")
	if err != nil {
		return err
	}

	// Let the agent connect and ship a heartbeat or two.
	time.Sleep(300 * time.Millisecond)

	if err := checkMetrics("scrubcentral", centralMetrics, requiredCentral, nil); err != nil {
		return err
	}
	if err := checkMetrics("scrubd", hostMetrics, requiredHost, nil); err != nil {
		return err
	}
	if err := checkMetrics("scrubcentral -shard", shardMetrics, requiredShard, forbiddenShard); err != nil {
		return err
	}
	for _, u := range []string{centralMetrics, hostMetrics, shardMetrics} {
		if err := checkPprof(u); err != nil {
			return err
		}
	}
	return nil
}

// daemon wraps a child process whose stdout is scanned for marker lines.
type daemon struct {
	cmd   *exec.Cmd
	lines chan string
}

func newDaemon(bin string, args ...string) *daemon {
	return &daemon{cmd: exec.Command(bin, args...), lines: make(chan string, 64)}
}

func (d *daemon) start() error {
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return err
	}
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		return err
	}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case d.lines <- sc.Text():
			default: // never block the child on our buffer
			}
		}
		close(d.lines)
	}()
	return nil
}

// await returns the remainder of the first stdout line starting with
// prefix, waiting up to 10s.
func (d *daemon) await(prefix string) (string, error) {
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-d.lines:
			if !ok {
				return "", fmt.Errorf("%s exited before printing %q", d.cmd.Path, prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return strings.TrimSpace(strings.TrimPrefix(line, prefix)), nil
			}
		case <-deadline:
			return "", fmt.Errorf("timed out waiting for %q from %s", prefix, d.cmd.Path)
		}
	}
}

func (d *daemon) stop() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill()
		_, _ = d.cmd.Process.Wait()
	}
}

// checkMetrics scrapes url and validates the exposition: every required
// family present, no forbidden one, no duplicate series, every sample
// line well-formed.
func checkMetrics(who, url string, required, forbidden []string) error {
	body, err := get(url)
	if err != nil {
		return fmt.Errorf("%s: scrape %s: %w", who, url, err)
	}
	series := make(map[string]bool) // full series key: name{labels}
	families := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// name{labels} value  |  name value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("%s: malformed exposition line %q", who, line)
		}
		key := line[:sp]
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if name == "" {
			return fmt.Errorf("%s: malformed exposition line %q", who, line)
		}
		if series[key] {
			return fmt.Errorf("%s: duplicate series %q", who, key)
		}
		series[key] = true
		families[name] = true
	}
	var missing []string
	for _, name := range required {
		if !families[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: missing metric families %v (got %d series)", who, missing, len(series))
	}
	for _, name := range forbidden {
		if families[name] {
			return fmt.Errorf("%s: exposes %s, which belongs to another tier", who, name)
		}
	}
	fmt.Printf("metrics-smoke: %s exposes %d series, all %d required families present\n",
		who, len(series), len(required))
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
