GO ?= go

.PHONY: build test race vet ci size unreached bench bench-smoke fuzz-smoke chaos-soak metrics-smoke difftest difftest-soak multinode-smoke failover-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# go vet plus scrubvet, the project's own five analyzers (hot-path
# allocation freedom, pooled-memory retention, metric naming, lock-order
# and lock-leak checking, goroutine lifecycle). The passes
# run concurrently over one shared type-checked load (one at a time at
# GOMAXPROCS=1); `-json` emits machine-readable findings.
# See DESIGN.md §12 for the annotation grammar.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/scrubvet ./...

ci:
	./scripts/ci.sh

# Non-test Go lines per internal/* package and cmd/*, all and then code
# only: the table an EXPERIMENTS.md entry's Size paragraph quotes for
# parent and change (`scripts/size.sh <dir>` sizes another checkout).
size:
	./scripts/size.sh

# Build every non-test binary with inlining off and fail on any func under
# internal/ that none of them links and scripts/unreached.allow does not
# name with a reason: non-test code is code a binary runs (ci.sh runs it
# after the build).
unreached:
	$(GO) run ./scripts/unreached

# scrubbench, the repository's one performance benchmark: all five
# workloads, untraced, printing the gated end-to-end metrics
# (bench/README.md). Host overhead, request latency and central throughput
# are its figures; the paper's case-study and methodology tables stay
# under cmd/benchrunner (`go run ./cmd/benchrunner -only E1`), which
# prints tables only.
bench:
	bash bench/run.sh --seed 1

# The benchmark's own tests — generator determinism and a 1/50-scale run
# of every workload with its conservation checks. bench/ is a nested
# module, so `go test ./...` at the root does not reach them.
bench-smoke:
	(cd bench && $(GO) test -short ./...)

# Boot a plain scrubcentral, a shard process and a coordinator over it,
# each executor with a scrubd, all with -metrics: scrape every endpoint,
# fail on missing, misplaced or duplicate series (plus a pprof probe),
# then run a query through both executors and fail if an ingest series
# did not move.
metrics-smoke:
	$(GO) run ./scripts/metricssmoke

# Short coverage-guided fuzz pass over the surfaces that parse untrusted
# input — the transport frame decoder (arbitrary network bytes, with and
# without a receive scratch, whole and in fuzz-chosen read sizes; a
# HostQuery's expression tree included), the packed runs a partial's bytes
# become window state as, the window partials a shard sends the
# coordinator with their aggregate states, sketches and moments (decode,
# merge, render, re-encode) — every one of these formats a description
# walked by internal/wire's coder, so the fuzzers drive its decoding mode
# — the query-language parser (arbitrary operator-typed text),
# the replay chunk decoder — and over the mechanisms checked against a
# model: the window-state hash index against its map, the host's register
# program against the closure compiler on every node of generated predicates, the
# batch size the shipper charges against the encoder's bytes, and top_k's
# flat stream summary against the map-based one it replaced. This is the
# one list of fuzz targets: ci.sh runs it with FUZZTIME=3s.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzRecvFrame -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzTupleBatchWireSize -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/central -run='^$$' -fuzz=FuzzPackedRun -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/central -run='^$$' -fuzz=FuzzJoinRun -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/central -run='^$$' -fuzz=FuzzDecodePartial -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/slab -run='^$$' -fuzz=FuzzIndex -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ql -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/replay -run='^$$' -fuzz=FuzzDecodeChunk -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/expr -run='^$$' -fuzz=FuzzProgramMatchesCompile -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sketch -run='^$$' -fuzz=FuzzSpaceSavingMatchesReference -fuzztime=$(FUZZTIME)

# Fixed-seed chaos soak under the race detector.
chaos-soak:
	$(GO) run -race ./cmd/benchrunner -only C1

# Differential-oracle sweep: 200 seeded cluster simulations (two full
# family × shards × mode coverage cycles), every host a real host.Agent
# running the query under test beside 0–4 decoys, cross-checking Engine,
# ShardedEngine at 1–8 shards, the coordinator + 2/4-shard multiprocess
# topology over the pipe transport, and the exact oracle, under the
# race detector. Every failure prints its exact replay command
# (DESIGN.md §13, §16).
difftest:
	$(GO) test -race ./internal/difftest -run 'TestDifferentialSweep|TestRegressionSeeds' -difftest.seeds=200

# Long soak: ~21 coverage cycles of the same harness.
difftest-soak:
	$(GO) test -race ./internal/difftest -run TestDifferentialSweep -difftest.seeds=2000 -timeout 30m

# Distributed deployment smoke: coordinator + 2 shard processes (one
# static, one hello-joined) + 3 host agents routing by shard map, full
# wire protocol on loopback, under the race detector (DESIGN.md §16).
multinode-smoke:
	$(GO) test -race -run TestMultinodeSmoke ./internal/server

# Coordinator HA smoke: replicating leader + warm standby + 2 shard
# processes + 2 host agents on loopback, kill -9 the leader mid-query,
# require the standby to promote, adopt the query and keep closing
# windows. All children built with -race (DESIGN.md §16).
failover-smoke:
	$(GO) run ./scripts/failoversmoke
