// Package daemon is the child-process harness of the smoke scripts
// (scripts/failoversmoke, scripts/metricssmoke): it builds the
// deployment's binaries and runs them as children whose stdout is scanned
// for the marker lines they print when ready.
package daemon

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// Build builds scrubcentral, scrubd and scrubql from ./cmd into dir,
// passing flags to go build. Run it from the repository root.
func Build(dir string, flags ...string) error {
	for _, cmd := range []string{"scrubcentral", "scrubd", "scrubql"} {
		args := append(append([]string{"build"}, flags...), "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
		build := exec.Command("go", args...)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s: %w", cmd, err)
		}
	}
	return nil
}

// Daemon wraps a child process whose stdout is scanned for marker lines.
type Daemon struct {
	Cmd   *exec.Cmd
	lines chan string
}

// New returns a daemon that runs bin with args once started.
func New(bin string, args ...string) *Daemon {
	return &Daemon{Cmd: exec.Command(bin, args...), lines: make(chan string, 256)}
}

// Start starts the child, its stderr passed through.
func (d *Daemon) Start() error {
	out, err := d.Cmd.StdoutPipe()
	if err != nil {
		return err
	}
	d.Cmd.Stderr = os.Stderr
	if err := d.Cmd.Start(); err != nil {
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

// Await returns the remainder of the first stdout line starting with
// prefix, waiting up to 30 s (a standby's promotion waits out the failover
// timeout, and -race children are slow).
func (d *Daemon) Await(prefix string) (string, error) {
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-d.lines:
			if !ok {
				return "", fmt.Errorf("%s exited before printing %q", d.Cmd.Path, prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return strings.TrimSpace(strings.TrimPrefix(line, prefix)), nil
			}
		case <-deadline:
			return "", fmt.Errorf("timed out waiting for %q from %s", prefix, d.Cmd.Path)
		}
	}
}

// Stop kills the child and waits for it.
func (d *Daemon) Stop() {
	if d.Cmd.Process != nil {
		_ = d.Cmd.Process.Kill()
		_, _ = d.Cmd.Process.Wait()
	}
}
