package difftest

import (
	"flag"
	"testing"
)

var (
	flagSeed  = flag.Int64("difftest.seed", -1, "replay a single simulation seed (from a failure message)")
	flagSeeds = flag.Int64("difftest.seeds", 96, "number of seeds to sweep (one full family×shards×mode cycle)")
)

// TestDifferentialSweep is the main differential harness entry point.
//
//	go test ./internal/difftest                      # one full coverage cycle (96 sims)
//	make difftest                                    # 200 sims under -race
//	make difftest-soak                               # 2000 sims under -race
//	go test ./internal/difftest -difftest.seed=N -v  # replay one failing sim
//
// Every simulation derives its query, streams, interleaving and chaos
// schedule from its seed alone; a failure's message carries the exact
// replay command.
func TestDifferentialSweep(t *testing.T) {
	if *flagSeed >= 0 {
		runSeed(t, *flagSeed)
		return
	}
	n := *flagSeeds
	if testing.Short() {
		n = 24
	}
	// Coverage per mode: sampled seeds sample every host's events (n = N),
	// hostsample seeds sample hosts (n < N).
	var modeChecked, modeHit [numModes]int
	for seed := int64(0); seed < n; seed++ {
		out := runSeed(t, seed)
		if out != nil {
			mode := deriveConfig(seed).Mode
			modeChecked[mode] += out.CovChecked
			modeHit[mode] += out.CovHit
		}
	}
	covChecked, covHit := 0, 0
	for mode := range modeChecked {
		covChecked += modeChecked[mode]
		covHit += modeHit[mode]
	}
	// Contract B is statistical: the Eq. 1–3 intervals are built at 95%
	// confidence, so aggregate coverage across the sweep must clear a
	// conservative floor (individual misses are expected and fine).
	if covChecked >= 20 {
		rate := float64(covHit) / float64(covChecked)
		t.Logf("sampling CI coverage: %d/%d = %.3f (n = N, sampled: %d/%d; n < N, hostsample: %d/%d)",
			covHit, covChecked, rate, modeHit[modeSampled], modeChecked[modeSampled],
			modeHit[modeHostSample], modeChecked[modeHostSample])
		if rate < 0.80 {
			t.Errorf("confidence-interval coverage %.3f (%d/%d) below 0.80 floor: Eq. 1–3 bounds are too tight",
				rate, covHit, covChecked)
		}
	} else if n >= 96 {
		t.Errorf("sweep of %d seeds produced only %d CI checks — sampled-mode coverage has rotted", n, covChecked)
	}
}

func runSeed(t *testing.T, seed int64) *Outcome {
	t.Helper()
	return runConfig(t, deriveConfig(seed))
}

func runConfig(t *testing.T, cfg Config) *Outcome {
	t.Helper()
	out, err := Run(cfg)
	if err != nil {
		t.Errorf("[%s] %v\n  replay: %s", cfg, err, cfg.ReplayCommand())
		return out
	}
	checkWindowsGolden(t, cfg, out)
	if testing.Verbose() {
		t.Logf("[%s] ok: %d windows, %d/%d CI hits, query: %s",
			cfg, len(out.Arms[0].Windows), out.CovHit, out.CovChecked, out.Query)
	}
	return out
}

// deriveDefaultConfig maps a seed onto the default-lateness sweep's grid:
// every family in every mode each 24 seeds, the shard count moving every
// 24, so 64 seeds run each family exact at 1, 2 and 4 shards.
func deriveDefaultConfig(seed int64) Config {
	s := max(seed, -seed)
	return Config{
		Seed:            seed,
		Family:          int(s % numFamilies),
		Mode:            int((s / numFamilies) % numModes),
		Shards:          shardCounts[(s/(numFamilies*numModes))%int64(len(shardCounts))],
		DefaultLateness: true,
	}
}

// TestDefaultLatenessSweep runs the default close rule through the same
// four arms and the oracle: sub-2 s windows, no declared lateness, each
// stream's disorder under half a slide. Exact seeds must match the oracle
// with no late drop — one slide of slack is all a stream that ships in
// near-order needs.
//
//	go test ./internal/difftest -run TestDefaultLatenessSweep -difftest.seed=N -v
func TestDefaultLatenessSweep(t *testing.T) {
	if *flagSeed >= 0 {
		runConfig(t, deriveDefaultConfig(*flagSeed))
		return
	}
	n := int64(64)
	if testing.Short() {
		n = 16
	}
	for seed := int64(0); seed < n; seed++ {
		runConfig(t, deriveDefaultConfig(seed))
	}
}

// TestRegressionSeeds pins seeds whose configurations exercise the
// divergences fixed in this change, so any reintroduction fails fast
// even if the sweep width is later reduced:
//
//   - sharded engines never closed windows on event time (Tick-only) and
//     never span-filtered before advancing the watermark — any exact
//     seed catches a resurrection because window sets would differ;
//   - mergeWinStates silently truncated raw rows and attributed no drop;
//   - ORDER BY ties and raw-row order were nondeterministic across
//     engines (LIMIT could keep different rows per engine);
//   - SpaceSaving.Merge lost mass for items unique to one summary and
//     evicted nondeterministically (shard-merged TOP_K differed);
//   - per-stream LateDrops were unattributed in the sharded merger
//     (chaos-mode stream stats diverged);
//   - windows flushed during ShardedEngine.StopQuery forgot the shards'
//     cumulative late/overflow drops (the shard queries were already torn
//     down when the final windows rendered, so polling them returned
//     nothing and their stats reverted to zero while the Engine's kept
//     counting);
//   - Eq. 1 confidence intervals were far too tight under event sampling:
//     the within-host variance term assumed the per-window cluster size
//     Mᵢ was known, so for COUNT (every sampled value 1, s²ᵢ = 0) the
//     bound collapsed to zero while the estimate mᵢ/q carried full
//     binomial error — sweep coverage sat near 0.79 instead of ≥0.95;
//   - the coordinator published a query before installing it on shards
//     (manifests could fold into a registration that was later rolled
//     back) and skipped late drops and the event clock on tuple-free
//     manifests; the failover arm kills the replicating leader
//     mid-delivery on every seed, so any of these — or a takeover that
//     loses a registration, double-emits a collected window, or forgets
//     the Degraded latch — diverges against the Engine;
//   - the agent's solo path (one unfiltered query on a type, a fast path
//     since removed) and spans bounded only at the end read a zero span
//     start as t = 0, so they dropped events before 1970 that the shared
//     path kept — the agent arm's match count fell short of the closure's.
//
// A pinned seed pins a configuration — family, shard count and mode, which
// deriveConfig maps it to and never remaps — not one simulation: when the
// agents replaced the hand-written host pipeline, every seed's batch
// boundaries and interleaving moved, so a seed below no longer replays
// the run that found its bug, only a run of the same shape. The seeds
// cover each family in exact mode at multiple shard counts plus chaos
// mode at several shard counts (mode cycle: 24-seed blocks; see
// deriveConfig).
func TestRegressionSeeds(t *testing.T) {
	for _, seed := range regressionSeeds {
		runSeed(t, seed)
	}
}

var regressionSeeds = []int64{
	0,    // raw,      1 shard, exact: canonical raw-row order
	1,    // grouped,  1 shard, exact
	3,    // topk,     1 shard, exact: SpaceSaving merge + determinism
	5,    // join,     1 shard, exact: join fan-out + pending merge
	9,    // topk,     2 shards, exact: cross-shard sketch merge
	15,   // topk,     4 shards, exact
	21,   // topk,     8 shards, exact
	18,   // raw,      8 shards, exact: merge truncation accounting
	22,   // distinct, 8 shards, exact: HLL register-max merge
	23,   // join,     8 shards, exact
	72,   // raw,      1 shard, chaos: late redelivery + host death
	76,   // distinct, 1 shard, chaos: stop-flush drop accounting
	78,   // raw,      2 shards, chaos: stop-flush drop accounting
	86,   // ungrouped, 4 shards, chaos: stop-flush drop accounting
	87,   // topk,     4 shards, chaos: stop-flush drop accounting
	93,   // topk,     8 shards, chaos: stop-flush drop accounting
	95,   // join,     8 shards, chaos: degraded-window agreement
	13,   // grouped,  4 shards, exact: leader killed mid-query, standby resumes
	69,   // topk,     8 shards, hostsample: failover under host subsetting
	1169, // join,     4 shards, exact: the agent's solo path dropped pre-1970 exclusions
}
