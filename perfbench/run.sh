#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload kv-closed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs and the Go caches stay in
# .bench_build/ there.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# The module has no dependencies to fetch; GOPATH, GOTMPDIR and
# XDG_CONFIG_HOME (Go's telemetry directory) only keep the toolchain's
# writes inside the checkout.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
go -C perfbench build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
