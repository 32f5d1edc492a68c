#!/usr/bin/env bash
# Full verification pass: vet, build, and the complete test suite under
# the race detector. Tier-1 (ROADMAP.md) is the subset
# `go build ./... && go test ./...`; this script is the stricter gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== internal/transport frames in place (imports no bufio) =="
if go list -f '{{join .Imports " "}} {{join .TestImports " "}}' ./internal/transport | grep -qw bufio; then echo "internal/transport imports bufio" >&2; exit 1; fi

echo "== one executor (internal/window keeps no watermark of its own, no shard runs on a 365-day lateness) =="
if grep -nE '\blateness\b|Observe\(' internal/window/*.go; then echo "internal/window knows lateness or has an Observe again" >&2; exit 1; fi
if grep -n 'shardLateness' internal/central/*.go; then echo "internal/central has shardLateness again" >&2; exit 1; fi

echo "== one production evaluator (expr.Program keeps no Value memo; non-test Go under cmd/, internal/, scripts/ and examples/ uses expr.Compile, Predicate or Evaluator only in internal/expr and internal/oracle, whose Input every harness calls: host and central run the register program) =="
if grep -nE '\bpnode\b|\btouched\b|\bmark +\[\]|\bepoch\b' internal/expr/prog.go; then echo "internal/expr/prog.go has the Value-memo interpreter's pnode/touched/mark/epoch again" >&2; exit 1; fi
if grep -rnE --include='*.go' 'expr\.(Compile|Predicate)\(|expr\.Evaluator\b' cmd internal scripts examples | grep -v '_test\.go:' | grep -vE '^internal/(expr|oracle)/'; then echo "non-test Go outside internal/expr and internal/oracle compiles an expression closure again: evaluate through expr.Program, build the oracle's input with oracle.Input" >&2; exit 1; fi
for f in Begin BeginTuples Finish Bool Value cmpNum cmpStr in arith; do
  if ! grep -B1 -E "^func \(c \*Ctx\) $f\(" internal/expr/prog.go | grep -q '^//scrub:hotpath$'; then echo "internal/expr/prog.go: Ctx.$f lost its //scrub:hotpath seed" >&2; exit 1; fi
done

echo "== frame buffers belong to frames (non-test internal/transport gives Conn no encode buffer of its own; the hub's data loop receives through a scratch, not conn.Recv()) =="
if awk '/^type Conn struct/,/^}/ { print FILENAME ":" FNR ": " $0 }' $(find internal/transport -maxdepth 1 -name '*.go' ! -name '*_test.go') | grep -E ':\s+enc\s' ||
   grep -nE '\bc\.enc\b' $(find internal/transport -maxdepth 1 -name '*.go' ! -name '*_test.go'); then
  echo "internal/transport's Conn keeps an encode buffer between frames again: Send encodes into a pooled buffer and gives it back once written" >&2; exit 1
fi
if awk '/^func / { in_fn = ($0 ~ /^func \(h \*Hub\) handleData\(/) } { code = $0; sub(/\/\/.*/, "", code) }
    in_fn && code ~ /conn\.Recv\(\)/ { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit !bad }' internal/server/hub.go; then
  echo "internal/server/hub.go's handleData receives with conn.Recv() again: it borrows a scratch's cells (RecvBorrowed), as a shard's loop does" >&2; exit 1
fi

echo "== a shipped tuple is encoded once (the shipper sizes a batch, it does not encode it) =="
if grep -rn 'encScratch' internal/; then echo "internal/ has encScratch again" >&2; exit 1; fi
if grep -n 'AppendEncode' internal/host/*.go | grep -v '_test\.go:'; then echo "internal/host encodes a batch itself again" >&2; exit 1; fi

echo "== aggregate state without boxes (no Aggregator word per group, no plan constant per count, no map in a sketch, no count-bucket list beside the stream summary's heap) =="
nontest() { find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go'; }
if grep -nE '\bmap\[' $(nontest internal/sketch); then echo "internal/sketch has a map (map[string]*ssCounter, map[*ssCounter]struct{}) in a non-test file again" >&2; exit 1; fi
if grep -nwE 'ssBucket|minBkt|freeBkt' $(nontest internal/sketch); then echo "non-test internal/sketch has the stream summary's count-bucket list again: the counters are one min-heap, whose root is the victim" >&2; exit 1; fi
if grep -nF 'slab.Slab[agg.Aggregator]' $(nontest internal/central); then echo "internal/central keeps an interface word per aggregate again" >&2; exit 1; fi
if grep -nE '^\s*star +bool' $(nontest internal/agg); then echo "internal/agg keeps COUNT(*)'s plan constant in every count state again" >&2; exit 1; fi
for f in 'SpaceSaving) AddBytes' 'SpaceSaving) bump' 'SpaceSaving) up' 'SpaceSaving) down'; do
  if ! grep -B1 -F "func (s *$f(" internal/sketch/spacesaving.go | grep -q '^//scrub:hotpath$'; then echo "internal/sketch/spacesaving.go: $f lost its //scrub:hotpath seed" >&2; exit 1; fi
done
if ! grep -B1 -F 'func (sl *Slab) Add(' internal/agg/slab.go | grep -q '^//scrub:hotpath$'; then echo "internal/agg/slab.go: Slab.Add lost its //scrub:hotpath seed" >&2; exit 1; fi

echo "== watermark − lateness in one place (non-test internal/central reads Plan.Lateness only in closeBounds) =="
if awk 'FNR == 1 { fn = "" } /^func / { fn = $0 } { code = $0; sub(/\/\/.*/, "", code) }
    code ~ /\.Lateness([^A-Za-z0-9_]|$)/ && fn !~ /\) closeBounds\(/ { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit !bad }' $(nontest internal/central); then
  echo "internal/central reads Lateness outside Plan.closeBounds" >&2; exit 1
fi

echo "== one form of open window state (no cold windows: no frozen/thaw series, no winState frozen/swept, no SlidingManager.Each/Opened) =="
if grep -rnE --include='*.go' 'scrub_central_(windows_frozen|window_thaws_total)' cmd internal | grep -v '_test\.go:'; then echo "non-test Go under cmd/ or internal/ names a cold-window series again" >&2; exit 1; fi
if grep -nE '\b(frozen|swept)\b' $(nontest internal/central); then echo "non-test internal/central has a frozen or swept window field again" >&2; exit 1; fi
if grep -nE '\b(Each|Opened)\(' $(nontest internal/window) $(nontest internal/central); then echo "non-test internal/window or internal/central has SlidingManager.Each or Opened again" >&2; exit 1; fi

echo "== one performance benchmark (scrubbench measures host overhead, latency and central throughput; benchrunner has no P1/P2/PS/P4) and one event sampler (sampling.Keep: no per-event or geometric sampler) =="
if grep -rnE --include='*.go' 'P1HostOverhead|P2RequestLatency|PSQueryScale|P4CentralThroughput|EventSampler' .; then echo "a .go file names a deleted runner or the per-event sampler again" >&2; exit 1; fi
if grep -rnE --include='*.go' '\b(GeometricSampler|NextSkip)\b' . | grep -v '_test\.go:'; then echo "non-test Go names the geometric skip-count sampler again: event sampling is sampling.Keep" >&2; exit 1; fi
if grep -nE '"(P1|P2|PS|P4)"|\brun(P1|P2|PS|P4)\b' cmd/benchrunner/*.go; then echo "cmd/benchrunner lists a P1, P2, PS or P4 runner again" >&2; exit 1; fi

echo "== the case studies run on one fixed clock (no P3 or P6 runner, no EstimateCount; in non-test internal/experiments only C1 and A1 read the wall clock) =="
if grep -rnE --include='*.go' 'P3SamplingAccuracy|P6Sketches|EstimateCount' .; then echo "a .go file names a deleted P3/P6 runner or sampling.EstimateCount again" >&2; exit 1; fi
if grep -nE 'time\.(Now|Since)\b|\bvirtualStart\b' $(nontest internal/experiments | grep -vE '/(c1_chaos|a1_ablation)\.go$'); then echo "non-test internal/experiments reads the wall clock outside C1 and A1: the case studies run on the fixed epoch" >&2; exit 1; fi

echo "== one copy of each case study (no internal/logbase, no experiment config struct, no benchrunner -quick or -seed, no root-level test file, examples/ holds only quickstart) =="
if [ -e internal/logbase ] || grep -rn --include='*.go' '"scrub/internal/logbase"' .; then echo "internal/logbase exists or is imported again: P5's logging answer is the oracle's" >&2; exit 1; fi
if grep -nE '[A-Z][0-9]Config' internal/experiments/*.go cmd/benchrunner/*.go; then echo "internal/experiments or cmd/benchrunner names an experiment config again: each experiment has one configuration, constants in its file" >&2; exit 1; fi
if grep -nE 'flag\.[A-Za-z0-9]+\("(quick|seed)"' cmd/benchrunner/*.go; then echo "cmd/benchrunner has a -quick or -seed flag again" >&2; exit 1; fi
if ls ./*_test.go 2>/dev/null; then echo "a root-level test file is back: the case studies are tested in internal/experiments and pinned by cmd/benchrunner's golden" >&2; exit 1; fi
if find examples -mindepth 1 -maxdepth 1 ! -name quickstart | grep .; then echo "examples/ holds more than quickstart again: a case study has one copy, in internal/experiments" >&2; exit 1; fi

echo "== the agents' record is the case studies' log (no hand-built events or mirrored route in internal/experiments, no reflect in its non-test code; agg.New and MustNew are test helpers; one copy of the oracle's tolerance, in internal/oracle) =="
if grep -rnE 'mustBuildBid|mustBuildImpression|platformRoute' internal/experiments; then echo "internal/experiments builds the platform's events or mirrors its route again: what the platform logged is in the record" >&2; exit 1; fi
if grep -n '"reflect"' $(nontest internal/experiments); then echo "non-test internal/experiments imports reflect again: a case study is compared with oracle.Compare" >&2; exit 1; fi
if grep -nE '^func (New|MustNew)\(' $(nontest internal/agg) || grep -rnE --include='*.go' '\bagg\.(New|MustNew)\(' cmd internal scripts examples bench | grep -v '_test\.go:'; then echo "agg.New or MustNew is non-test code or has a non-test caller again: aggregate state lives in a Slab, and the oracle's aggregates are its own" >&2; exit 1; fi
if grep -rniE --include='*.go' 'func (floatsClose|valuesClose)\(' internal | grep -v '^internal/oracle/'; then echo "a copy of floatsClose or valuesClose lives outside internal/oracle again: compare through oracle.Compare and oracle.ValuesClose" >&2; exit 1; fi

echo "== one kernel per process (no shard-count knob; ShardedEngine at n >= 2 is the coordinator's test double, built only in internal/central, internal/difftest and bench/) =="
if grep -rnE --include='*.go' '\bCentralShards\b|"shards"' cmd internal | grep -v '_test\.go:'; then echo "non-test Go under cmd/ or internal/ has a shard-count knob (CentralShards or a \"shards\" flag) again" >&2; exit 1; fi
if grep -rnE --include='*.go' 'NewShardedEngine(With)?\(' . | grep -vE '^\./(internal/central|internal/difftest|bench)/|_test\.go:' | grep -vE 'NewShardedEngine(With)?\(1[,)]'; then echo "non-test code outside internal/central, internal/difftest and bench/ builds a ShardedEngine with n other than a literal 1" >&2; exit 1; fi

echo "== the oracle runs the real host agent (non-test internal/difftest builds no TupleBatch; its batches come from host.Agent) =="
# A literal is written TupleBatch{ (gofmt); a signature's result type is
# followed by " {", which is not a literal.
if grep -nE 'TupleBatch\{' $(nontest internal/difftest); then echo "non-test internal/difftest builds a transport.TupleBatch literal again: batches come from agents only" >&2; exit 1; fi

echo "== one description per wire message (no codecsym analyzer, no coordination codec beside the base one, no Ping/Pong) =="
if grep -rnE --include='*.go' 'CodecSymAnalyzer|appendEncodeCoord|decodeCoord|nameCoord|shardStartBody|transport\.(Ping|Pong)\b' . || grep -nE '^type (Ping|Pong)\b' internal/transport/*.go; then echo "a .go file names the codecsym analyzer, a twin encode/decode/Name arm or Ping/Pong again: each message is described once, by its code method" >&2; exit 1; fi

echo "== one description per binary format (expression trees, aggregate states, sketches, moments and window partials are coded by internal/wire, with no twin decoder beside them) =="
if grep -rnE --include='*.go' '\b(DecodeNode|decodeNode|DecodeHLL|DecodeSpaceSaving|DecodeRunning|decodeInto|encodePartial|readNode)\b' .; then echo "a .go file names a twin encoder or decoder of a nested format again: describe the format once, as a code method walked in every mode" >&2; exit 1; fi
if grep -nF '"encoding/binary"' $(nontest internal/expr) $(nontest internal/agg) $(nontest internal/stats) internal/central/partial.go; then echo "non-test internal/expr, internal/agg, internal/stats or internal/central/partial.go imports encoding/binary again: a format's bytes go through internal/wire" >&2; exit 1; fi

echo "== one retransmit buffer, in the agent (the agent keeps what a sink reports undelivered; NetSink buffers no batch, and no SpillLimit, SetDropAccounting or AccountDrops) =="
if grep -rnwE --include='*.go' 'SpillLimit|SetDropAccounting|AccountDrops|spillLocked|drainSpillLocked' .; then echo "a .go file names NetSink's spill or its drop callback again: the agent's shipper keeps undelivered chunks, bounded by QueueSize" >&2; exit 1; fi
if grep -nF '[]transport.TupleBatch' internal/host/client.go; then echo "internal/host/client.go declares a []transport.TupleBatch again: a sink holds no batch, it wraps host.ErrUndelivered" >&2; exit 1; fi

echo "== one description of a query's plan (central.Plan embeds ql.Plan and adds only what the deployment resolved; ShardStart carries only what the text does not say; difftest's plans say what their text says) =="
knobs='Confidence|MaxRawRows|MaxJoinPending|BudgetCPUPct|BudgetBytesPerSec|ReplayNanos|SampleEvents'
if awk '/^type ShardStart struct/,/^}/' internal/transport/msg_coord.go | grep -nwE "$knobs" ||
   awk '/^type Plan struct/,/^}/' internal/central/plan.go | grep -nwE "$knobs"; then
  echo "transport.ShardStart or central.Plan declares a knob again: the text says the sampling rate, the replay span and the budget, and central's confidence and state caps are its own" >&2; exit 1
fi
if grep -nE '\.(SampleEvents|Replay) *=[^=]' $(nontest internal/difftest); then echo "non-test internal/difftest sets a plan's SampleEvents or Replay again: write the clause into the query text" >&2; exit 1; fi

echo "== one description of a stream's report (BatchManifest embeds TupleBatch and declares no report field of its own; liveness.Table.Fold is the one fold; no manifestOf, FoldGovernor, FoldReplay, ObserveTs or Evictions) =="
if grep -rnwE --include='*.go' 'manifestOf|FoldGovernor|FoldReplay|ObserveTs|Evictions' . | grep -v '_test\.go:'; then echo "non-test Go names a deleted copy or fold of a stream's report again: a manifest is its batch's header (transport.BatchManifest embeds TupleBatch) and liveness.Table.Fold folds it into the StreamStat a window reports" >&2; exit 1; fi
if awk '/^type BatchManifest struct/,/^}/' internal/transport/msg_coord.go | grep -nw 'MatchedTotal'; then echo "transport.BatchManifest declares its own MatchedTotal again: it embeds TupleBatch, whose counters description it codes" >&2; exit 1; fi

echo "== one path from a matched event to a chunk (a replay scan runs Log's dispatch on a lane of its own: no submitReplay, and agent.go begins no evaluation context) =="
if grep -nw 'submitReplay' $(nontest internal/host); then echo "non-test internal/host names submitReplay again: a replayed event is selected, sampled and projected into its chunk by dispatch.go, on the scan's own lane" >&2; exit 1; fi
if grep -nE '\.Begin\(expr\.' internal/host/agent.go; then echo "internal/host/agent.go begins an evaluation context again: events are evaluated only in dispatch.go" >&2; exit 1; fi

echo "== the router keeps no ledger (a manifest reports its own batch's routing drops: no routeKey, routeDrops map or cumDrops, and RouteToShards takes no counter; each query carries the shard map it pins: no CurrentShardMap, pinAddrs or QueryEpoch, and only Server.dispatch stamps a ShardEpoch) =="
if grep -rnwE --include='*.go' 'routeKey|cumDrops|CurrentShardMap|pinAddrs|QueryEpoch' cmd internal | grep -v '_test\.go:' ||
   grep -rnE --include='*.go' '\brouteDrops +map\b' cmd internal | grep -v '_test\.go:'; then
  echo "non-test Go under cmd/ or internal/ keeps a routing-drop ledger or a second source of a query's pin again: a manifest's RouteDrops is its batch's, liveness sums them, and a host learns a query's map from the query (Server.dispatch, Coordinator.PinnedMap)" >&2; exit 1
fi
if grep -rnE --include='*.go' 'func RouteToShards\([^)]*\*uint64' cmd internal; then echo "central.RouteToShards takes a counter again: it reports the batch's routing drops on the manifest" >&2; exit 1; fi
if awk 'FNR == 1 { fn = "" } /^func / { fn = $0 } { code = $0; sub(/\/\/.*/, "", code) }
    code ~ /\.ShardEpoch *=[^=]/ && fn !~ /\) dispatch\(/ { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit !bad }' $(nontest internal/server); then
  echo "internal/server stamps a ShardEpoch outside Server.dispatch: Submit and ResyncHost send a query through the one dispatch" >&2; exit 1
fi

echo "== standbys hold the leader's state, not its history (non-test Go under cmd/ or internal/ names no RepQueryStart, RepQueryStop, RepMembership, syncPeerLocked or applyLocked; transport.RepAppend declares no Index or Entries) =="
if grep -rnwE --include='*.go' 'RepQueryStart|RepQueryStop|RepMembership|syncPeerLocked|applyLocked' cmd internal | grep -v '_test\.go:'; then echo "non-test Go under cmd/ or internal/ replicates a log of transitions again: the leader pushes its whole control-plane state (Coordinator.stateLocked) and a standby replaces what it held with it" >&2; exit 1; fi
if awk '/^type RepAppend struct/,/^}/' internal/transport/msg_coord.go | grep -nwE 'Index|Entries'; then echo "transport.RepAppend declares a log index or entries again: an append carries the state (Addrs, Queries) or is a Beat" >&2; exit 1; fi

echo "== a shard's drops ride the manifest of the batch that caused them (no per-shard drop ledger: no ShardLate, ShardOverflow, foldLate, shardLate or shardOverflow; ShardBatchAck, ShardPartials, ShardWindows and DrivenAck declare no Late or Overflow field) =="
if grep -rnwE --include='*.go' 'ShardLate|ShardOverflow|foldLate|shardLate|shardOverflow' cmd internal | grep -v '_test\.go:'; then echo "non-test Go under cmd/ or internal/ keeps a per-shard drop ledger again: a shard reports what each sub-batch cost (LateDelta, OverflowDelta), the manifest sums it, and liveness charges it to the stream" >&2; exit 1; fi
if awk '/^type (ShardBatchAck|ShardPartials|ShardWindows|DrivenAck) struct/,/^}/ { print FILENAME ":" FNR ": " $0 }' $(nontest internal/transport) $(nontest internal/central) | grep -E ':\s*(Late|Overflow)\b'; then echo "a shard ack, a collect reply or DrivenAck declares a cumulative Late or Overflow field again: a shard reports only the sub-batch's deltas" >&2; exit 1; fi

echo "== a window's hosts in one table, a query's streams in one read (no perHost, RatesByHost or AnyShed; liveness.Table has no Snapshot, HostDrops, ShardDrops or Evicted method and none is called; ShardPartials declares no Found) =="
if grep -rnwE --include='*.go' 'perHost|RatesByHost|AnyShed' cmd internal | grep -v '_test\.go:'; then echo "non-test Go under cmd/ or internal/ names a second per-host map or a deleted stream-table read again: a window keeps one host table (winState.hosts), and liveness.Table.Report reads the streams once" >&2; exit 1; fi
if grep -nE '^func \(t \*Table\) (Snapshot|HostDrops|ShardDrops|Evicted)\(' $(nontest internal/liveness) ||
   grep -rnE --include='*.go' '\bstreams\.(Snapshot|HostDrops|ShardDrops|Evicted)\(' cmd internal | grep -v '_test\.go:'; then
  echo "liveness.Table has or a caller calls a deleted one-field read (Snapshot, HostDrops, ShardDrops, Evicted) again: read a liveness.Report" >&2; exit 1
fi
if awk '/^type ShardPartials struct/,/^}/' internal/transport/msg_coord.go | grep -nw 'Found'; then echo "transport.ShardPartials declares Found again: no receiver reads it" >&2; exit 1; fi

echo "== a query install costs what the query brings (non-test internal/host makes no trial intern against a throwaway builder and names no groupKey; internal/expr/prog.go has no Go map: the builder finds nodes and strings through its flat index) =="
if grep -nF 'NewProgramBuilder().Intern(' $(nontest internal/host); then echo "non-test internal/host trial-interns a predicate against a throwaway builder again: Start interns into a cut of the type's live program and returns the error" >&2; exit 1; fi
if grep -nE '\bmap\[' internal/expr/prog.go; then echo "internal/expr/prog.go has a Go map again: a ProgramBuilder finds nodes and string literals through its open-addressed index, fields, in-lists and LIKE patterns by scan" >&2; exit 1; fi
if grep -nw 'groupKey' $(nontest internal/host); then echo "non-test internal/host names groupKey again: nothing on the host keys a column set, each subscriber projects its own columns into its chunk" >&2; exit 1; fi

echo "== one dispatch path on the host (non-test internal/host names no projGroup or dispatchCtx and declares no solo, always or gated field: every subscriber, behind one minStart skip, checks its span and predicate and projects straight into its lane's chunk) =="
if grep -nwE 'projGroup|dispatchCtx' $(nontest internal/host) ||
   grep -nE '^\s+(solo|always|gated)\s+[A-Za-z*[]' $(nontest internal/host); then
  echo "non-test internal/host has a second dispatch path again (shared projection groups, a pooled dispatch context, the solo fast path or the always/gated split): typeProgram keeps one subs list" >&2; exit 1
fi

echo "== mᵢ is counted where a chunk leaves its lane (non-test internal/host names no sampleAll, stores nothing into sampled and never reports matched as sampled: lane.detachLocked adds each chunk's tuples, and sendBatch reports the counter as read) =="
if grep -nE '\bsampleAll\b|\bsampled\.Store\(|\bsampled\s*=\s*(aq\.)?matched\b' $(nontest internal/host); then
  echo "non-test internal/host has the rate-1 fast path's second count of mᵢ again (a sampleAll flag, a sampled.Store seeding or sendBatch's sampled = matched): count mᵢ only in lane.detachLocked, as a chunk leaves its lane" >&2; exit 1
fi

echo "== queries keep no predicate tree (a type's live expr.Program is the only copy of its queries' predicates, and one cut of it, expr.Program.Keep, serves install, removal and replay: non-test internal/host declares no canon field, holds no expr.Node in an activeQuery and names no compileTypeProgram or withSubscriber; internal/expr has no Program.Builder) =="
if grep -nE '^\s+canon\s+[A-Za-z*[]' $(nontest internal/host) ||
   awk '/^type activeQuery struct/,/^}/ { print FILENAME ":" FNR ": " $0 }' internal/host/agent.go | grep -F 'expr.Node' ||
   grep -nwE 'compileTypeProgram|withSubscriber' $(nontest internal/host) ||
   grep -nF 'func (p *Program) Builder(' $(nontest internal/expr); then
  echo "internal/host keeps a query's predicate tree or a second way to build a type's program again, or internal/expr seeds a builder from a whole program: Start interns the tree into host.cut of the live program and drops it, and Stop, span expiry, shed and a replay scan cut the program to the roots they keep" >&2; exit 1
fi

echo "== one scale-up rule (a batch's rate weights its tuples at apply: non-test internal/ and cmd/ name no substituteEstimate and no report's Rates, and liveness.Table.Report takes no argument) =="
if grep -rnw --include='*.go' 'substituteEstimate' cmd internal | grep -v '_test\.go:' ||
   grep -rnE --include='*.go' '\.Rates\b|\bReport\([^)]' cmd internal | grep -v '_test\.go:' ||
   awk '/^type Report struct/,/^}/' internal/liveness/liveness.go | grep -nw 'Rates'; then
  echo "non-test Go under cmd/ or internal/ scales a window by its hosts' last reported rates again (substituteEstimate, Report.Rates or Report's plan-rate argument): a batch's rate weights its tuples at apply (central.tupleWeight), and render scales every scalable aggregate by Plan.scaleFactor alone" >&2; exit 1
fi

echo "== one estimator input (a window's host keeps two Horvitz-Thompson sums per aggregate: non-test internal/ and cmd/ name no EstimatedM, EstimateSumMoments or stats.Running, and internal/stats declares no Running) =="
if grep -rnE --include='*.go' 'EstimatedM|EstimateSumMoments|stats\.Running' cmd internal | grep -v '_test\.go:' ||
   grep -nE '^type Running\b' $(nontest internal/stats); then
  echo "non-test Go under cmd/ or internal/ keeps Welford moments or recovers a host's Mᵢ for the error bounds again: a host's moment is t = Σw·x and v = Σw·(w−q)·x² (central.moment), and sampling.EstimateSum takes each host's (t/q, v/q²)" >&2; exit 1
fi

echo "== a buffered join run keeps its event time only when the plan reads it (non-test internal/central encodes no uint64(qs.plan.Window) into a join run: a side's span is compiled.span, set from expr.Binding.ReadsTime) =="
if grep -nF 'uint64(qs.plan.Window)' $(nontest internal/central); then echo "non-test internal/central weighs a join run by the window length again, whether or not the plan reads the side's ts: buffer and probeJoin take the side's compiled.span, 0 when the program reads no ts of it" >&2; exit 1; fi

echo "== slab.Index keeps its own chains (non-test Go under internal/ names no splitJoin, splitGroups or threadGroup and defines no (a *Arena) Linked: every threaded run begins with the index's header, which AppendHeader writes and ParseHeader reads, and Index.Split does the one re-thread walk) =="
if grep -rnwE --include='*.go' 'splitJoin|splitGroups|threadGroup' internal | grep -v '_test\.go:'; then echo "non-test Go under internal/ lays out, walks or re-threads an index's chain itself again: a split is slab.Index.Split, given the owner's hash of a run" >&2; exit 1; fi
if grep -rnF --include='*.go' 'func (a *Arena) Linked(' internal | grep -v '_test\.go:'; then echo "internal/slab defines Arena.Linked again: a threaded run's link lies in the index's header (slab.ParseHeader), and group runs keep no link at a chain's end" >&2; exit 1; fi

echo "== a window's indexes grow a bucket at a time (non-test internal/central has no rethreadJoin or rethreadGroups, and internal/slab/index.go no 2*len(ix.heads) doubling: a full index splits one bucket, linear hashing) =="
if grep -nwE 'rethreadJoin|rethreadGroups' $(nontest internal/central); then echo "non-test internal/central re-threads a whole window again: a full index splits one bucket (slab.Index.Split)" >&2; exit 1; fi
if grep -nF '2*len(ix.heads)' internal/slab/index.go; then echo "internal/slab/index.go doubles its heads again: Index.Split adds one bucket, and the heads grow a Slab chunk at a time" >&2; exit 1; fi

echo "== an index's heads live in a slab.Slab (internal/slab/index.go defines no addBucket and no segs field: slab.Slab is the package's one chunked array for fixed-size entries) =="
if grep -nE '^func \([a-z]* ?\*Index\) addBucket\(|^\s+segs\s' internal/slab/index.go; then echo "internal/slab/index.go keeps its heads in segments of its own again: they live in a slab.Slab[uint32], which grows a chunk at a time" >&2; exit 1; fi

echo "== one egress for every result (internal/server/hub.go writes to a client connection only in clientSink, the sink its Egress writer calls; internal/server/egress.go calls a sink only in Egress.write; the session's replies and the callbacks it hands the server queue, and only SendToHost, handleData and BroadcastShardMap write to a host; no linePrinter, clientConn or Stream.Dropped) =="
if awk '/^func / { fn = $0 } { code = $0; sub(/\/\/.*/, "", code) }
    code ~ /\.Send\(/ && fn !~ /^func clientSink\(|^func \(h \*Hub\) (SendToHost|handleData|BroadcastShardMap)\(/ { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit !bad }' internal/server/hub.go; then
  echo "internal/server/hub.go sends on a connection outside clientSink: queue what a client is sent on its Egress, so no client that stops reading can block the merger or the session" >&2; exit 1
fi
if awk '/^func / { fn = $0 } { code = $0; sub(/\/\/.*/, "", code) }
    code ~ /\.sink\(/ && fn !~ /^func \(e \*Egress\) write\(/ { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit !bad }' internal/server/egress.go; then
  echo "internal/server/egress.go calls a sink outside Egress.write: an egress has one writer" >&2; exit 1
fi
if grep -rnwE --include='*.go' 'linePrinter|clientConn|newClientConn' cmd internal scripts examples || grep -rnE --include='*.go' '\.Dropped\(\)|func \(s \*Stream\) Dropped' cmd internal scripts examples; then
  echo "a .go file names the standby's linePrinter, the hub's clientConn or Stream.Dropped again: results leave through one server.Egress, whose policy is a time cut, not a drop" >&2; exit 1
fi

echo "== adopted queries are ordinary queries (a host reports the queries it runs and ResyncHost follows that: internal/server/server.go's ResyncHost calls no SelectHosts or Resolve and serverQuery has no adopted field; coord.Standby.Promote takes one EmitFunc, not a func that returns one) =="
if awk '/^func / { in_fn = ($0 ~ /^func \(s \*Server\) ResyncHost\(/) } { code = $0; sub(/\/\/.*/, "", code) }
    in_fn && code ~ /SelectHosts|Resolve\(/ { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit !bad }' internal/server/server.go; then
  echo "internal/server/server.go's ResyncHost re-draws a host sample again: a re-registering host reports the queries it runs (RegisterHost.Queries), and ResyncHost lists it on those and sends it only the listed queries it lacks" >&2; exit 1
fi
if awk '/^type serverQuery struct/ { in_t = 1 } in_t && /^}/ { in_t = 0 } in_t && /^[[:space:]]+adopted[[:space:]]/ { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit !bad }' internal/server/server.go; then
  echo "internal/server/server.go's serverQuery has an adopted field again: an adopted query is admitted like a submitted one and learns its hosts from their registrations" >&2; exit 1
fi
if grep -nE 'func \(s \*Standby\) Promote\([[:alnum:]_]* *func\(' internal/coord/standby.go; then
  echo "internal/coord/standby.go's Promote takes a per-query emit factory again: it takes one central.EmitFunc for every resumed query (ResultWindow.QueryID tells them apart)" >&2; exit 1
fi

echo "== one way to stand up ScrubCentral (non-test Go under cmd/scrubcentral names no server.NewHub, SetServer, .Promote(, .Adopt( or ShardHello: server.Listen assembles every node, core.Takeover promotes a standby, coord.Announce joins a shard; Hub.SetMetrics is not exported) =="
if grep -rnE --include='*.go' 'server\.NewHub|SetServer|\.Promote\(|\.Adopt\(|ShardHello' cmd/scrubcentral | grep -v '_test\.go:'; then echo "non-test Go under cmd/scrubcentral assembles a hub and server, takes a standby over or joins a shard by hand again: call server.Listen, core.Takeover or coord.Announce" >&2; exit 1; fi
if grep -n 'func (h \*Hub) SetMetrics' internal/server/*.go; then echo "internal/server exports Hub.SetMetrics again: server.Listen registers the hub's series" >&2; exit 1; fi

echo "== typed atomics only, and scrubvet's five directives (non-test Go under cmd/, internal/, scripts/ and examples/ calls no function-style sync/atomic operation, and names no atomicfield analyzer, LockedFuncs or GuardedFields, nor writes a guardedby, locked, oneshot or allow directive) =="
if grep -rnE --include='*.go' 'atomic\.(Add|Load|Store|CompareAndSwap|Swap|And|Or)(Int|Uint|Pointer)' cmd internal scripts examples | grep -v '_test\.go:'; then echo "non-test Go calls a function-style sync/atomic operation: use a typed atomic (atomic.Uint64, atomic.Pointer[T], ...), which cannot be accessed plainly" >&2; exit 1; fi
if grep -rnE --include='*.go' '\b(AtomicFieldAnalyzer|LockedFuncs|GuardedFields)\b|//scrub:(guardedby|locked|oneshot)\b|//scrub:allow\(' cmd internal scripts examples | grep -v '_test\.go:'; then echo "non-test Go names the deleted atomicfield analyzer or its annotation indexes, or writes a directive scrubvet no longer reads: the grammar is hotpath, allowalloc, pooled, allowretain and longlived" >&2; exit 1; fi

echo "== analyzer golden tests (internal/analysis) =="
go test ./internal/analysis/...

echo "== scrubvet (hotpath, poolsafe, metricname, lockorder, golifecycle) =="
# On failure, re-run in -json mode so CI logs carry machine-readable
# findings (one object per line: file/line/analyzer/message).
if ! go run ./cmd/scrubvet ./...; then
  echo "scrubvet findings (JSON):" >&2
  go run ./cmd/scrubvet -json ./... >&2 || true
  exit 1
fi

echo "== go build =="
go build ./...

echo "== non-test code is code a binary runs (every func under internal/ is linked into a cmd/, examples/, scripts/ or scrubbench binary, or named in scripts/unreached.allow; no G1 runner, AgentSink, scrubvet -seq or replay request bloom) =="
go run ./scripts/unreached
if grep -rnE --include='*.go' 'G1Governor|AgentSink|\bRunSequential\b|bloomProbes|MayContainRequest' cmd internal scripts examples; then echo "a .go file names G1, an AgentSink, analysis.RunSequential or the replay request bloom again" >&2; exit 1; fi

echo "== bench smoke (the benchmark's compile gate: bench/ is a nested module built against internal/*; plus generator determinism and 1/50-scale workloads) =="
make bench-smoke

echo "== go test -race =="
go test -race ./...

echo "== metrics smoke (boot a plain scrubcentral, a shard process and a coordinator over it, the two executors with agents, scrape /metrics, run a query through both executors, then a top_k whose window state the gauge must count and give back) =="
go run ./scripts/metricssmoke

echo "== chaos soak (fixed seed, -race) =="
go run -race ./cmd/benchrunner -only C1

echo "== differential oracle sweep (200 seeded sims, the pinned seeds and 64 default-lateness sims, -race) =="
go test -race ./internal/difftest -run 'TestDifferentialSweep|TestRegressionSeeds|TestDefaultLatenessSweep' -difftest.seeds=200

echo "== multinode smoke (coordinator + 2 shards + 3 hosts, -race) =="
go test -race -run TestMultinodeSmoke ./internal/server

echo "== failover smoke (kill -9 leader mid-query, standby promotes, -race) =="
go run ./scripts/failoversmoke

echo "== replay smoke (record/replay equivalence, hold release) =="
go test -race -run 'TestReplay' ./internal/difftest ./internal/host ./internal/central ./internal/replay

echo "== fuzz smoke (transport frame decoding, batch wire size vs encoder, packed window runs, join runs through the engine (headers, string slots, probes against a nested loop), shard window partials (decode, merge, render), window-state index, ql parser, replay chunks, register program vs closures, stream summary vs its map-based reference) =="
make fuzz-smoke FUZZTIME=3s

echo "ci: OK"
