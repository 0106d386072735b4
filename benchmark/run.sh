#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/.build/ (git-ignored) and
# runs it with the arguments it was given:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes is inside the checkout: the Go build cache, module
# cache, temporary build directories and the go command's own config/telemetry
# directory live under benchmark/.build/ too, and the trace files and the WAL
# scratch directory under benchmark/out/. Without the repository around it
# (only BENCHMARK.json and benchmark/), the build fails and so does this
# script, before anything is printed on standard output.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$here"
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
	export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
	go build -o "$build/bench" .
) >&2
exec "$build/bench" --out "$here/out" "$@"
