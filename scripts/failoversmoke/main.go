// Command failoversmoke is the CI gate for coordinator high availability:
// it boots a real distributed deployment on loopback — two shard
// processes, a warm standby, a replicating coordinator, two host agents
// generating demo events, and a troubleshooter running a live query —
// then kill -9s the coordinator mid-query and fails unless the standby
// promotes, adopts the query, and keeps closing result windows.
//
// All children are built with -race so the takeover path runs under the
// detector in CI. Run it from the repo root (make failover-smoke does):
//
//	go run ./scripts/failoversmoke
package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"scrub/scripts/daemon"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "failover-smoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("failover-smoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "failoversmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	if err := daemon.Build(tmp, "-race"); err != nil {
		return err
	}
	central := filepath.Join(tmp, "scrubcentral")

	// The standby takes over the leader's addresses after the kill, so
	// they must be fixed up front (ephemeral :0 would differ per process).
	clientAddr, err := pickPort()
	if err != nil {
		return err
	}
	controlAddr, err := pickPort()
	if err != nil {
		return err
	}
	dataAddr, err := pickPort()
	if err != nil {
		return err
	}

	// Two shard processes: they outlive the leader and hold the windows.
	var shardAddrs []string
	for i := 0; i < 2; i++ {
		shard := daemon.New(central, "-adplatform", "-shard", "127.0.0.1:0")
		if err := shard.Start(); err != nil {
			return err
		}
		defer shard.Stop()
		addr, err := shard.Await("  shard rpc: ")
		if err != nil {
			return err
		}
		shardAddrs = append(shardAddrs, addr)
	}

	// The warm standby: holds the state the leader pushes, and on leader silence
	// rebinds the leader's client/control/data addresses.
	standby := daemon.New(central, "-adplatform",
		"-standby", "127.0.0.1:0", "-failover-timeout", "750ms",
		"-client", clientAddr, "-control", controlAddr, "-data", dataAddr)
	if err := standby.Start(); err != nil {
		return err
	}
	defer standby.Stop()
	repAddr, err := standby.Await("  replication: ")
	if err != nil {
		return err
	}

	// The leader: replicating coordinator over both shards.
	leader := daemon.New(central, "-adplatform", "-coord",
		"-client", clientAddr, "-control", controlAddr, "-data", dataAddr,
		"-shard-addrs", strings.Join(shardAddrs, ","),
		"-peers", repAddr)
	if err := leader.Start(); err != nil {
		return err
	}
	defer leader.Stop()
	if _, err := leader.Await("scrubcentral up"); err != nil {
		return err
	}

	// Two host agents generating demo bid events.
	for i := 0; i < 2; i++ {
		agent := daemon.New(filepath.Join(tmp, "scrubd"),
			"-host", fmt.Sprintf("fo-%d", i+1), "-service", "BidServers", "-adplatform",
			"-control", controlAddr, "-data", dataAddr,
			"-demo", "bid=300", "-seed", fmt.Sprintf("%d", i+1))
		if err := agent.Start(); err != nil {
			return err
		}
		defer agent.Stop()
		if _, err := agent.Await("scrubd up:"); err != nil {
			return err
		}
	}

	// The troubleshooter: a live query spanning well past the kill. Its
	// client connection dies with the leader; the promoted standby owns
	// the query afterwards and prints its windows itself.
	query := daemon.New(filepath.Join(tmp, "scrubql"),
		"-server", clientAddr, "-quiet",
		"select count(*) from bid window 2s duration 2m")
	if err := query.Start(); err != nil {
		return err
	}
	defer query.Stop()
	accepted, err := query.Await("query ")
	if err != nil {
		return err
	}
	// "<id> accepted: ...": the leader numbers ids in its incarnation.
	qid, _, _ := strings.Cut(accepted, " ")

	// Windows must flow on the leader before the kill is meaningful.
	if err := awaitWindows(filepath.Join(tmp, "scrubql"), clientAddr, qid, 20*time.Second); err != nil {
		return fmt.Errorf("pre-kill: %w", err)
	}
	fmt.Println("failover-smoke: query running on leader, windows closing — killing leader")

	// kill -9: no shutdown path runs; the standby must notice via silence.
	if err := leader.Cmd.Process.Kill(); err != nil {
		return err
	}
	_, _ = leader.Cmd.Process.Wait()

	if _, err := standby.Await("scrubcentral standby: leader silent"); err != nil {
		return err
	}
	promoted, err := standby.Await("scrubcentral up (promoted leader, fence ")
	if err != nil {
		return err
	}
	fmt.Printf("failover-smoke: standby promoted (fence %s\n", promoted)

	// The adopted query must keep closing windows on the new leader —
	// several of them, proving the merge resumed, not just survived.
	for n := 0; n < 3; n++ {
		if _, err := standby.Await("scrubcentral adopted window: query " + qid + " "); err != nil {
			return fmt.Errorf("post-failover window %d: %w", n+1, err)
		}
	}

	// And the query is visible (and accumulating) through the re-bound
	// client plane, so a reconnecting troubleshooter can find it.
	if err := awaitWindows(filepath.Join(tmp, "scrubql"), clientAddr, qid, 20*time.Second); err != nil {
		return fmt.Errorf("post-failover list: %w", err)
	}
	fmt.Println("failover-smoke: promoted leader closing windows for the adopted query")
	return nil
}

// awaitWindows polls `scrubql -list` until query qid reports at least one
// closed window.
func awaitWindows(scrubql, clientAddr, qid string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		out, err := exec.Command(scrubql, "-server", clientAddr, "-list").CombinedOutput()
		if err == nil {
			for _, line := range strings.Split(string(out), "\n") {
				if strings.HasPrefix(line, "query "+qid+" ") && !strings.Contains(line, "windows=0 ") {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("query %s closed no windows within %s (last list: %q, err %v)", qid, timeout, string(out), err)
		}
		time.Sleep(300 * time.Millisecond)
	}
}

// pickPort reserves a loopback port by binding and releasing it.
func pickPort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}
