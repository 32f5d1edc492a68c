package harness

import "time"

// Fixed sizes of the measured sections. A run measures Seconds × the
// per-second constant below — a fixed amount of work chosen once, on the
// reference machine (2 cores), never calibrated while running. BENCHMARK.json
// fixes Seconds (run_seconds); these constants fix the rest.
const (
	// burstEvents is the open-loop generator's burst size: events are
	// issued in bursts of this many on a fixed schedule.
	burstEvents = 64

	// hostEventNanos spaces the events of host-fanout and host-firehose:
	// 50k events per second. host-fanout's Log costs 6–8 µs, so the
	// generator's core is 30–40 % busy inside Log: at 80k/s (50–65 %) a
	// noisy phase of the machine pushed it close enough to saturation for
	// queueing to multiply emit_lag_p95_ms (0.7 → 1.9 ms between runs).
	hostEventNanos = 20_000

	// clusterEventNanos spaces each cluster-wire agent's events: 40k events/s
	// per agent, 80k/s in all — the fabric sustained twice that with the
	// process at about one busy core, so this is roughly half capacity.
	clusterEventNanos = 25_000

	// centralRoundsPerSecond sizes the closed-loop central workloads: both
	// feed this many rounds (gen.Central) per second of run length, so
	// central-mixed and central-sharded apply identical input.
	centralRoundsPerSecond = 64

	// centralWarmRoundsPerSecond paces the central workloads' warm-up: half
	// the rate the measured section reaches on a quiet machine, and still
	// below what it reaches on a slow one.
	centralWarmRoundsPerSecond = 32

	// slicesPerRun is how many slices of equal work a measured section is
	// cut into for the timing metrics: 250 ms each at the default length,
	// which holds a window close on every workload and is short against
	// the seconds-long slow episodes of the machine.
	slicesPerRun = 40

	// warmupShare is the warm-up's size relative to the measured section.
	warmupShare = 0.10

	// traceReferenceShare is the part of a traced run's Seconds spent on
	// the untraced reference section that trace.overhead_pct compares to.
	traceReferenceShare = 0.3

	// setupReps is how many times an untraced run constructs and warms the
	// system; setup_s is the median.
	setupReps = 3
)

// Host agent configuration of the host-only workloads. FlushInterval is
// longer than any run so every batch is a chunk filled to BatchSize (the
// final Flush ships the partial ones): batch count is then a function of
// event count, not of timer phase. QueueSize is P1's: drops would make the
// run fail its conservation check, not speed it up.
const (
	hostBatchSize     = 256
	hostQueueSize     = 1 << 16
	hostFlushInterval = time.Hour
)

// Cluster-wire configuration. Chunks fill well inside the flush interval
// at clusterEventNanos; the interval still fires (heartbeats, liveness).
// The server's tick does not divide the 100 ms window: with a tick that
// does (20 ms, say) the phase between tick and window end is fixed for a
// whole run and random between runs, and so is the emit lag; at 13 ms the
// phase walks through every value within 1.3 s.
const (
	clusterBatchSize     = 128
	clusterFlushInterval = 500 * time.Millisecond
	clusterTickInterval  = 13 * time.Millisecond
	clusterShards        = 2
	// clusterWindow is the queries' window (gen.ClusterWindow). The
	// timetable is laid so that the measured section ends clusterEndPhase
	// into a window: after the tick that closed the window released at the
	// last boundary (13 ms plus the collect), and early enough for the
	// drain to finish and the ticks to be stopped (timedCoordinator.gate)
	// before the next. Ended wherever the run happened to, heap_live_mb
	// read one window (5 %) up or down.
	clusterWindow   = 100 * time.Millisecond
	clusterEndPhase = 50 * time.Millisecond
	// clusterLateness is central's default Plan.Lateness, which the query
	// server leaves in force: no window is emitted sooner after its end.
	clusterLateness = 2 * time.Second
	// clusterMinWarmup makes the warm-up outlast the lateness, so windows
	// are already being emitted when the measured section starts and every
	// one of its 100 ms × 4 queries yields a lag sample.
	clusterMinWarmup = clusterLateness + 100*time.Millisecond
)

// centralShards is central-sharded's shard count.
const centralShards = 4

// Defaults of the command's -seed and -seconds; BENCHMARK.json's
// run_seconds records the same length.
const (
	DefaultSeed    = 1
	DefaultSeconds = 10
)
