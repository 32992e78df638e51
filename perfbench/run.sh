#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; arguments
# pass through (see perfbench/main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload apu-bfs --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache and temporary files,
# Go telemetry and configuration) stays under .bench_build in the repository
# root, and no network access is attempted.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" HOME="$out/home"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
