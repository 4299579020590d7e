#!/usr/bin/env bash
# CI gate for the repo: vet, build, full test suite, then the race detector
# over the packages with real concurrency (the worker-pool harness, the obs
# registry and its coverage-probe table, and the pluggable sync layer). The
# full `go test ./...` is 75-80 s on a 2-vCPU runner, nearly all of it
# internal/core (66 s when it runs alone).
#
# The -race pass builds with the `race` tag, which makes the long
# deterministic bug-hunt suites skip themselves (see
# internal/core/race_on_test.go) — the detector's value is in the pool and
# registry concurrency paths, not in replaying tens of thousands of
# sequential cases 10x slower. The explicit -timeout keeps the race pass
# honest on small single-CPU runners.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== shardlint ./... (four soundness passes: syncusage, determinism, mapiter, droppederr)"
go run ./cmd/shardlint -v ./...

echo "== shardlint waiver budget (inventory must match lint_waivers.txt exactly)"
live_waivers=$(go run ./cmd/shardlint -waivers ./...)
committed_waivers=$(grep -v '^#' lint_waivers.txt | sed '/^$/d')
if ! diff -u <(echo "$committed_waivers") <(echo "$live_waivers"); then
    echo "waiver inventory drifted from lint_waivers.txt:" >&2
    echo "regenerate with: go run ./cmd/shardlint -waivers ./... and justify the diff in review" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -C bench ./... (the benchmark's own oracles: BENCHMARK.json <-> program, determinism under one seed)"
go test -C bench ./...

echo "== lock discipline (shuttle: the scheduler's run-time lock checker, its fixtures, and the harnesses it watches)"
go test -run 'TestLockDiscipline' -count=1 ./internal/shuttle/
go test -run 'TestConcurrencyHarnessesCleanBaseline|TestDetectConcurrencyBugs' -count=1 ./internal/core/
go test -run 'TestShuttleGroupCommit' -count=1 ./internal/dep/

echo "== go test -race (core, vsync, scrub)"
go test -race -timeout 600s ./internal/core/... ./internal/vsync/... ./internal/scrub/...

echo "== go test -race (obs + rpc: registry hot paths vs snapshot/metrics readers)"
go test -race -timeout 300s ./internal/obs/... ./internal/rpc/...

echo "== rpc v2 hammer -race (one client, 8 goroutines, depth-64 pipelines; non-v2 openers dropped and torn down)"
go test -race -timeout 300s -run 'TestSharedClientPipelineHammer|TestOutOfOrderCompletion|TestNonV2PreambleDropped' -count=1 ./internal/rpc/

echo "== rpc opcode coverage and trace vocabulary (every opcode named, dispatched, metered; stages and metric names from the obs vocabulary)"
go test -run 'TestOpcodeCoverage|TestTraceStageVocabulary' -count=1 ./internal/rpc/

echo "== rpc pipelining gate (server-side depth 1 lock-step, >= 32 shared client; >= 2.5x v2 lock-step ops/s; skipped under -race by design)"
go test -timeout 300s -run 'TestPipelineThroughputGain' -count=1 -v ./internal/rpc/ | grep -E 'ops/s|ok  |PASS|FAIL'

echo "== observability determinism gate (metrics on/off: same verdicts, same disk bytes)"
go test -run 'TestObservabilityDeterminismGate' -count=1 ./internal/core/

echo "== trace determinism gate (spans on/off: same verdicts, same disk bytes)"
go test -run 'TestTraceDeterminismGate' -count=1 ./internal/core/

echo "== validation-throughput gate (random streams pinned, golden harness fingerprint)"
go test -run 'TestReseedDeterminism|TestReseedAllocatesNothing' -count=1 ./internal/chunk/
go test -run 'TestReseedMakesStoresIdentical' -count=1 ./internal/store/
go test -run 'TestHarnessFingerprint' -count=1 ./internal/core/

echo "== allocation budgets (node_4k: Get hit <= 1 page + 640 B, miss <= 2 pages + 1280 B, durable put <= 48 KB, half-live extent reclaim <= 3328 KB; <= 350 KB per conformance case)"
go test -run 'TestGetAllocBudget|TestDurablePutAllocBudget|TestReclaimAllocBudget|TestConformanceCaseCostBudget' -count=1 -v . | grep -E ' B per| KB |per case|ok  |PASS|FAIL'

echo "== ownership oracles -race (results caller-owned, reclaim evacuates exact bytes under a reader, lone writebacks issue in place, malformed locators rejected)"
go test -race -timeout 300s -run 'TestGetResultIsCallerOwned' -count=1 ./internal/store/
go test -race -timeout 300s -run 'TestReclaimEvacuatesExactBytes|TestGetRejectsMalformedLocator' -count=1 ./internal/chunk/
go test -race -timeout 300s -run 'TestSingleWritebackRunIssuesInPlace|TestIssuedDataIsCopiedAtTheDevice|TestReadsProceedDuringSync' -count=1 ./internal/dep/

echo "== group-commit gate (syncs/put at 8 writers <= 1/2 lock-step)"
go test -timeout 300s -run 'TestGroupCommitThroughputGate' -count=1 -v . | grep -E 'syncs|ok  |PASS|FAIL'

echo "== compaction read-amplification gate (64-run keyspace quiesces to <= level budget)"
go test -run 'TestCompactionReadAmplificationGate' -count=1 -v . | grep -E 'runs/get|ok  |PASS|FAIL'

echo "== compaction-vs-foreground hammer -race (durable steps against puts/gets on real goroutines)"
go test -race -timeout 300s -run 'TestCompactionForegroundRaceHammer' -count=1 .

echo "== scan conformance gate (ordered-map lockstep, page prefixes, detection + honesty, RPC cursor walk)"
go test -run 'TestScanLockstepRandomOps|TestScanCursorWalk|TestScanLimitsArePrefixes|TestScanPageCostIndependentOfTreeSize|TestScanTornLevelSwapFault|TestScanFaultPathDeadWhenDisarmed' -count=1 ./internal/lsm/
go test -run 'TestScanConformanceSmoke|TestScanTornLevelSwapDetected|TestScanVerdictHonesty' -count=1 ./internal/core/
go test -run 'TestScanOverRPC|TestScanContinuationToken|TestScanIteratorRefetch|TestScanIteratorServerClosed|TestCapabilityOpcodeMatrix|TestBatchPerItemOutcomes' -count=1 ./internal/rpc/

echo "CI PASS"
