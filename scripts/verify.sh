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

echo "== go test -race (chimera resilience + decision provenance + sharded tier + shared rule telemetry under concurrent batches) =="
go test -race ./internal/chimera -run 'TestResilientClient|TestClassifyDegraded|TestProvenance|TestShardedServer|TestRuleHealthSeesShardedTraffic|TestConcurrentProcessBatches'

echo "== fuzz smoke (10s per target) =="
go test -fuzz=FuzzParseRule -fuzztime=10s -run '^$' ./internal/pattern
go test -fuzz=FuzzWitnessSound -fuzztime=10s -run '^$' ./internal/pattern
go test -fuzz=FuzzVerdictExplain -fuzztime=10s -run '^$' ./internal/core
go test -fuzz=FuzzShardRouter -fuzztime=10s -run '^$' ./internal/serve
go test -fuzz=FuzzItemFingerprint -fuzztime=10s -run '^$' ./internal/catalog
go test -fuzz=FuzzWALDecode -fuzztime=10s -run '^$' ./internal/persist

echo "== tier-1: go build ./... && go test ./... =="
go build ./...
go test ./...

echo "== benchmark of record: its own module's tests (world/traffic determinism, failure accounting, smoke of every run) =="
(cd benchmark && go test ./...)

echo "verify: OK"
