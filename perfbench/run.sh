#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the binary, e.g.
#   bash perfbench/run.sh --workload demo-simulate --seed 1 --seconds 20 --trace 0
# Build output, the Go build cache, temporary files and traces stay under
# .bench_build/. The build neither stamps version-control data (a checkout
# may sit inside a repository whose git refuses it) nor needs a C compiler.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
