#!/bin/sh
# bench.sh — gate the solver/SQL hot paths, then run the benchmarks with
# -benchmem and emit a compact JSON summary (name, ns/op, B/op, allocs/op)
# for revision-over-revision diffing.
#
# Usage:
#   scripts/bench.sh                 # default pattern and output file
#   scripts/bench.sh 'Benchmark.*'   # custom -bench pattern
#   BENCH_OUT=out.json scripts/bench.sh
#
# Before benchmarking, the script fails loudly (non-zero exit) if `go vet`
# or the race-detector runs fail: compiled constraint kernels are shared
# across solver workers, a solve step's column vectors are shared with the
# steps after it and an incremental solver's memo (TestStepSharesColumns),
# the morsel-parallel executor shares one pool and
# plan cache across concurrent statements, and every table now encodes
# into one process-wide dictionary whose decode side is lock-free — a racy
# hot path must never produce a green benchmark report.
#
# The default pattern covers the generation-sensitive benchmarks (the
# compiled-kernel solver on table D, all eight controllers generated from
# freshly built specs, and the Fig. 3 incremental sweep)
# plus the planner-sensitive ones: the invariant suite (the paper's
# every-revision workload), the substrate SELECT/JOIN microbenchmarks,
# the prepared-statement floor, the EXPLAIN ANALYZE pair (plain vs
# instrumented execution of the same join), the selection-vector filter
# scan, the §4.2 deadlock story and its per-assignment VCG analyses, the
# segment pack/unpack throughput, the out-of-core
# state-exploration pair (budget-stopped vs spilled at a fixed memory
# budget, with states and bytes/state as extra metrics; the spilled run
# must reach ≥100x the states the retired in-memory engine held), the §5
# map phase step by step (partition, verify, equivalence, implementation
# suite, the whole phase) beside map + reconstruct, and the
# multi-session server under reader/writer interference
# (BenchmarkServerQPS: ns/op is per-statement latency across concurrent
# line-protocol clients, p99-ns its tail). The race gates also cover
# the lock-free metrics plane, the segment store and the model checker
# (every engine variant against the in-memory BFS test oracle, plus the
# frozen exploration golden, the state codec's decode round trip with
# its shared decode memo, touched expansion -- marks, touched encode,
# restore and diff decode -- against the full codec, the refusal of
# unencodable systems, clones applying concurrently over shared table
# matchers and keeping consistent Stats, and the ternary matcher
# against its full-scan oracle), the
# scan-filter and solver-batch equivalence suites (frozen result digests,
# and every compiled form against the tree-walking interpreter, over scan
# morsels, over the solver's domain batches and over a rule-chain
# family's selection batches (TestSelectorBatchMatchesRows), the value
# form over a random selection and each row alone as a one-row batch,
# including the differential fuzzer's seed corpus, MonolithicOpts across
# lane-batch boundaries (TestMonolithicAcrossLaneBatches), and whole
# SELECTs against the naive nested-loop oracle), the MVCC epoch/catalog layer
# (with DML atomicity on shared and session tables, UPDATE/DELETE against
# their row-at-a-time oracle, indexes carried across epochs against a
# rebuild, and DML building no index) and the query server (concurrent
# sessions, admission, drain), the
# deadlock analysis (per-controller dependency derivation fans out on
# the pool), protocol generation (eight specs solved at once
# over shared cached rule-condition trees), and TestNilTracerOverheadBound
# enforces the <5% off-path instrumentation budget before any number is
# recorded.
#
# After writing the summary, the script diffs it against the previous
# revision's baseline (BENCH_BASELINE, default BENCH_9.json) and prints a
# WARNING line for every benchmark whose ns/op or B/op regressed by more
# than 10%. The warnings are advisory (the script still exits 0): some
# hosts are noisy, and the acceptance gate reads the warnings, not the
# exit code.
set -eu

cd "$(dirname "$0")/.."

PATTERN="${1:-BenchmarkGenerateDirectoryD$|BenchmarkGenerateAllControllers$|BenchmarkGenerateIncremental$|BenchmarkInvariantSuite$|BenchmarkInvariantSuiteSerial$|BenchmarkDeltaRecheck$|BenchmarkSQLSelectWhere$|BenchmarkSQLJoin$|BenchmarkSQLPreparedSelect$|BenchmarkExplainAnalyzeOverhead$|BenchmarkVectorizedFilter|BenchmarkStateExplore|BenchmarkSegmentPack|BenchmarkMapPhase$|BenchmarkMapAndReconstruct$|BenchmarkDeadlockStory$|BenchmarkVCGConstruction}"
SERVER_PATTERN="${BENCH_SERVER_PATTERN:-BenchmarkServerQPS$}"
OUT="${BENCH_OUT:-BENCH_10.json}"
BASELINE="${BENCH_BASELINE:-BENCH_9.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== go vet ./... =="
go vet ./...

echo "== race-detector storage-engine tests =="
go test -race ./internal/rel/...

echo "== race-detector solver tests =="
go test -race -run 'TestSolve|TestMonolithic|TestMonolithicAcrossLaneBatches|TestConcurrentSolves|TestQuickSolveEqualsMonolithic|TestBatchCursor|TestCompiledPredConcurrentUse|TestVectorizedSweepMatchesScalar|TestQuickSharedChainsMatchOracles|TestIncrementalMemberLeavesFamily|TestArmSelectionsOncePerRow|TestFamilySplit|TestFamilySelectionErrors|TestCompileSweepAgreesWithInterpreter|TestStepSharesColumns|TestSelectorBatchMatchesRows|FuzzCompiledMatchesInterpreter' \
    ./internal/constraint/ ./internal/sqlmini/

echo "== race-detector parallel-executor tests =="
go test -race -run 'TestParallelMatchesSerial|TestParallelMatchesSerialControllers|TestConcurrentParallelSelects|TestParallelWorkerStats|TestEach' \
    ./internal/pool/ ./internal/sqlmini/

echo "== race-detector vectorized-equivalence tests =="
go test -race -run 'TestScanFiltersMatchFrozenResults|TestVecPredMatchesScalarKernel|TestSweepVecMatchesInterpreter|FuzzCompiledMatchesInterpreter|TestCompileAgreesWithInterpreter|TestCompileBoundValueConditionals|TestStatementsMatchOracle|FuzzStatementsMatchOracle|TestCompiledConstraintsMatchInterpreter' \
    ./internal/sqlmini/

echo "== race-detector observability tests =="
go test -race ./internal/obs/...

echo "== race-detector delta-tracking tests =="
go test -race ./internal/delta/...

echo "== race-detector incremental-recheck equivalence =="
go test -race -run 'TestEditScriptEquivalence|TestSQLEditScriptEquivalence|TestSeededRecheckMatchesRun|TestRecheckUnderConcurrentWriter' ./internal/check/

echo "== race-detector segment-store tests =="
go test -race ./internal/segment/

echo "== race-detector model-checker equivalence (oracle + golden) =="
go test -race -run 'TestSegmented|TestFrozenExploreGolden|TestOracle|TestExploreRefusesUnencodedState|TestStateCodecMatchesFingerprint|TestStateCodecDecode|TestStateCodecTouched|TestTraceLogOutOfCore|TestCloneCountsOwnTransitions|TestCloneKeepsMaxOccupancy|TestClonesApplyConcurrently|TestMatcher' \
    ./internal/modelcheck/ ./internal/sim/ ./internal/rel/

echo "== race-detector MVCC catalog + session + DML tests =="
go test -race -run 'TestCatalog|TestConcurrentSnapshotReaders|TestCarryIndexes|TestConcurrentSessions|TestSessionOverlay|TestSessionDMLAtomic|TestDMLMatchesRowOracle|TestCarriedIndexesMatchRebuild|TestDMLBuildsNoIndex' \
    ./internal/rel/ ./internal/sqlmini/ ./internal/check/

echo "== race-detector query-server tests =="
go test -race ./internal/server/...

echo "== race-detector deadlock-analysis tests =="
go test -race ./internal/deadlock/...

echo "== race-detector protocol-generation tests =="
go test -race ./internal/protocol/...

echo "== nil-tracer overhead bound (<5%) =="
go test -run 'TestNilTracerOverheadBound' -count=1 .

echo "== benchmarks =="
go test -run '^$' -bench "$PATTERN" -benchmem . | tee "$RAW"

echo "== server benchmarks =="
go test -run '^$' -bench "$SERVER_PATTERN" -benchmem ./internal/server/ | tee -a "$RAW"

# Benchmark lines look like:
#   BenchmarkSQLJoin   2422   495743 ns/op   171253 B/op   2531 allocs/op
# BenchmarkServerQPS also reports a p99-ns tail-latency metric.
awk '
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""; p99 = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
        if ($i == "p99-ns")    p99 = $(i - 1)
    }
    if (ns == "") next
    if (out != "") out = out ",\n"
    out = out sprintf("  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s",
        name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs)
    if (p99 != "") out = out sprintf(", \"p99_ns\": %s", p99)
    out = out "}"
}
END { printf "[\n%s\n]\n", out }
' "$RAW" > "$OUT"

echo "wrote $OUT"

if [ -f "$BASELINE" ] && [ "$BASELINE" != "$OUT" ]; then
    echo "== regression check vs $BASELINE (warn > 10% ns/op or B/op) =="
    awk -v base="$BASELINE" '
    function parse(file, ns, by,   line, name, v) {
        while ((getline line < file) > 0) {
            if (line !~ /"name"/) continue
            name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
            v = line; sub(/.*"ns_per_op": /, "", v); sub(/[,}].*/, "", v)
            ns[name] = v + 0
            if (line ~ /"bytes_per_op": [0-9]/) {
                v = line; sub(/.*"bytes_per_op": /, "", v); sub(/[,}].*/, "", v)
                by[name] = v + 0
            }
        }
        close(file)
    }
    function warn(metric, name, o, n) {
        printf "WARNING: %s regressed %.1f%% %s (%.0f -> %.0f)\n",
            name, 100 * (n / o - 1), metric, o, n
    }
    BEGIN {
        parse(base, oldns, oldby)
        parse(ARGV[1], newns, newby)
        warned = 0
        for (name in newns) {
            if ((name in oldns) && oldns[name] > 0 && newns[name] / oldns[name] > 1.10) {
                warn("ns/op", name, oldns[name], newns[name])
                warned = 1
            }
            if ((name in oldby) && oldby[name] > 0 && (name in newby) && newby[name] / oldby[name] > 1.10) {
                warn("B/op", name, oldby[name], newby[name])
                warned = 1
            }
        }
        if (!warned) print "no benchmark regressed more than 10% vs " base
        exit 0
    }
    ' "$OUT"
fi
