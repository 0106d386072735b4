#!/usr/bin/env sh
# The verification CI runs (.github/workflows/ci.yml calls this script, so the
# race-package and fuzz-target lists exist once): formatting, vet,
# race-enabled tests on the concurrency-sensitive packages (obs metrics hot
# paths, the core kernel), a 10 s smoke of every fuzz target, the tier-1 gate
# (full build + test, see ROADMAP.md), then the tests of the benchmark module,
# which ./... skips.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go test -race (obs, core, serve incl. sim soak + sharded chaos harness, catalog, faultinject, crowd, opshttp, persist incl. crash-consistency property test) =="
go test -race ./internal/obs ./internal/core ./internal/serve ./internal/catalog \
    ./internal/faultinject ./internal/crowd ./internal/opshttp ./internal/persist

# race_run PKG PATTERN [FLAGS...] runs go test -race PKG -run PATTERN FLAGS,
# but first fails if any |-alternative of PATTERN matches no test in PKG (go
# test -list), so a renamed or deleted test cannot drop out of the race list
# silently.
race_run() {
    pkg=$1
    pattern=$2
    shift 2
    listed=$(go test -list '.*' "$pkg")
    old_ifs=$IFS
    IFS='|'
    for alt in $pattern; do
        if ! printf '%s\n' "$listed" | grep -Eq "$alt"; then
            echo "verify: -run alternative '$alt' matches no test in $pkg" >&2
            exit 1
        fi
    done
    IFS=$old_ifs
    go test -race "$pkg" -run "$pattern" "$@"
}

echo "== go test -race (chimera resilience over the tier + decision provenance + sharded tier + shared rule telemetry under concurrent batches + ProcessBatch ≡ Classify across worker counts + retrain while the tier and ProcessBatch serve + one decision cache + one engine per pipeline) =="
race_run ./internal/chimera 'TestResilientClient|TestResilientClientShutdownLeaksNoGoroutines|TestResilientClientDegradedReadsTierSnapshot|TestClassifyDegraded|TestProvenance|TestShardedServer|TestRuleHealthSeesShardedTraffic|TestConcurrentProcessBatches|TestProcessBatchMatchesClassify|TestRetrainWhileServing|TestShardedTierSharesOneDecisionCache|TestDecisionEvidenceOwnership|TestOneEnginePerPipeline'
race_run ./cmd/chimera 'TestOpsSnapshotReadsServingEngine'

echo "== go test -race -count=20 (ordered change feed: delivery order, registration version, WAL under racing mutators) =="
race_run ./internal/core 'TestChangeFeedOrdered|TestSubscribeChanges' -count=20
race_run ./internal/persist 'TestConcurrentMutators' -count=20

echo "== go test -race (delta snapshots equal full builds; a load only initializes a fresh rulebase, raced by an add and a subscription; copy-on-write rules read during mutations, -count=10) =="
race_run ./internal/serve 'TestDeltaSnapshotEqualsFullProperty'
race_run ./internal/core 'TestLoadOnlyInitializes'
race_run ./internal/core 'TestHealthDuringConfidenceUpdates|TestFindDuplicatesDuringDisables' -count=10

echo "== go test -race (one changeset, one version: readers never see part of one, -count=10; a refused changeset changes, delivers and draws nothing) =="
race_run ./internal/serve 'TestChangesetVisibleWhole' -count=10
race_run ./internal/core 'TestCommitAllOrNothing'

echo "== go test -race -count=20 (engine lifecycle: Start catches up, held loop publishes on commit and coalesces, holds and Close) =="
race_run ./internal/serve 'TestEngineStartCatchesUp|TestEngineCoalescesWithoutTimer|TestEngineHolds' -count=20

echo "== go test -race -count=10 (the tier's ledger closes without Wait; serve constructors leak no goroutines) =="
race_run ./internal/serve 'TestShardLedgerClosesWithoutWait|TestServeConstructorsLeakNoGoroutines' -count=10

echo "== go test -race (ensemble postings: concurrent Predict on one trained model; bit-equal to the map-based reference; untrained ensemble allocates nothing; NewEnsemble copies its slices) =="
race_run ./internal/learn 'TestPredictConcurrent|TestDenseKernelMatchesReference|TestUntrainedEnsembleDoesNoWork|TestNewEnsembleCopiesSlices'

# fuzz PKG TARGET runs a 10 s smoke of TARGET. Minimizing an input that
# widened coverage is capped at 1 s: at the default 60 s one long input takes
# the rest of the smoke, and the engine runs the target there without counting
# it, so the exec counter stops. A failing input is still reported and saved.
fuzz() {
    go test -fuzz="$2" -fuzztime=10s -fuzzminimizetime=1s -run '^$' "$1"
}

# FuzzMatchEqualsBacktracking also runs each pattern's shift-and program over
# the title interned through a dictionary (0, 63, 64 and 100 tokens included);
# FuzzWitnessSound checks that a match hits every witness set, which the rule
# index's postings and title signature rest on; FuzzVerdictExplain runs the
# kernel's programs and their Rule.Matches fallbacks on world-shaped and
# guarded rules; FuzzRulebaseLoad loads arbitrary bytes into a fresh
# rulebase (a refused load leaves it fresh, a load re-marshals stably);
# FuzzSnapshotMatchesNested holds the snapshot file, the rulebase's JSON and
# every WAL frame to the nested encoder kept in
# internal/persist/nested_test.go.
echo "== fuzz smoke (10s per target) =="
fuzz ./internal/pattern FuzzParseRule
fuzz ./internal/pattern FuzzWitnessSound
fuzz ./internal/pattern FuzzMatchEqualsBacktracking
fuzz ./internal/core FuzzVerdictExplain
fuzz ./internal/core FuzzAttrValueKey
fuzz ./internal/core FuzzRulebaseLoad
fuzz ./internal/serve FuzzShardRouter
fuzz ./internal/catalog FuzzItemFingerprint
fuzz ./internal/persist FuzzWALDecode
fuzz ./internal/persist FuzzReplayEqualsLive
fuzz ./internal/persist FuzzSnapshotMatchesNested
fuzz ./internal/learn FuzzDenseKernelMatchesReference
fuzz ./internal/learn FuzzFingerprintDeterminesPrediction
fuzz ./internal/learn FuzzKNNPrunedMatchesFullScan

echo "== tier-1: go build ./... && go test ./... =="
go build ./...
go test ./...

echo "== benchmark of record: its own module's tests (world/traffic determinism, failure accounting, smoke of every run) =="
(cd benchmark && go test ./...)

echo "verify: OK"
