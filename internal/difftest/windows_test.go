package difftest

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"scrub/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/windows.golden from the seeds this run checks, and testdata/plans.golden")

const windowsGolden = "testdata/windows.golden"

// windowsKey names one line of windows.golden: a sweep, a seed and an arm.
type windowsKey struct {
	sweep string
	seed  int64
	arm   string
}

func sweepName(cfg Config) string {
	if cfg.DefaultLateness {
		return "default-lateness"
	}
	return "differential"
}

var golden struct {
	once sync.Once
	err  error
	want map[windowsKey]string
	// got collects this run's hashes for -update, merged over want.
	got map[windowsKey]string
}

func loadGolden() {
	golden.want = make(map[windowsKey]string)
	golden.got = make(map[windowsKey]string)
	f, err := os.Open(windowsGolden)
	if err != nil {
		if !*update {
			golden.err = err
		}
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var k windowsKey
		var h string
		if _, err := fmt.Sscanf(sc.Text(), "%s %d %s %s", &k.sweep, &k.seed, &k.arm, &h); err != nil {
			golden.err = fmt.Errorf("%s: %q: %v", windowsGolden, sc.Text(), err)
			return
		}
		golden.want[k] = h
	}
	golden.err = sc.Err()
}

// windowsHash is a SHA-256 over the wire encoding of each window, in emit
// order. StreamStat.CPUNs is zeroed first: it is the agents' measured
// time, the one field that differs between two runs of a seed.
func windowsHash(ws []transport.ResultWindow) (string, error) {
	h := sha256.New()
	var buf []byte
	for _, w := range ws {
		w.Streams = append([]transport.StreamStat(nil), w.Streams...)
		for i := range w.Streams {
			w.Streams[i].CPUNs = 0
		}
		var err error
		if buf, err = transport.AppendEncode(buf[:0], w); err != nil {
			return "", err
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// checkWindowsGolden holds every arm of one seed's run to
// testdata/windows.golden: the seeds plain `go test` sweeps (differential
// 0–95, default-lateness 0–63) emit byte-identical windows in every arm,
// run after run. A seed the file does not name is not checked. With
// -update the run's hashes replace the file's lines for the same seeds.
func checkWindowsGolden(t *testing.T, cfg Config, out *Outcome) {
	t.Helper()
	golden.once.Do(loadGolden)
	if golden.err != nil {
		t.Fatalf("%v (go test ./internal/difftest -update writes it)", golden.err)
	}
	for _, a := range out.Arms {
		h, err := windowsHash(a.Windows)
		if err != nil {
			t.Fatalf("[%s] %s arm: %v", cfg, a.Name, err)
		}
		k := windowsKey{sweepName(cfg), cfg.Seed, a.Name}
		if *update {
			golden.got[k] = h
			continue
		}
		if want, ok := golden.want[k]; ok && want != h {
			t.Errorf("[%s] %s arm's windows moved: sha256 %s, %s has %s\n  replay: %s",
				cfg, a.Name, h, windowsGolden, want, cfg.ReplayCommand())
		}
	}
}

// writeGolden merges the run's hashes over the file's and rewrites it,
// sorted; it is TestMain's last step under -update.
func writeGolden() error {
	golden.once.Do(loadGolden)
	if len(golden.got) == 0 {
		return nil
	}
	for k, h := range golden.got {
		golden.want[k] = h
	}
	keys := make([]windowsKey, 0, len(golden.want))
	for k := range golden.want {
		keys = append(keys, k)
	}
	// By sweep, then seed, then arm in the order Run returns them.
	rank := func(arm string) int { return strings.Index("engine sharded pipe failover", arm) }
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.sweep != b.sweep {
			return a.sweep < b.sweep
		}
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		return rank(a.arm) < rank(b.arm)
	})
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %d %s %s\n", k.sweep, k.seed, k.arm, golden.want[k])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(windowsGolden, []byte(sb.String()), 0o644)
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if *update {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
