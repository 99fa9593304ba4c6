#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload closed_batch --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the go command and the
# benchmark write stays under .bench_build/ in the current directory: the
# build cache, temporary files, the Go config and telemetry directory
# (XDG_CONFIG_HOME), the binary and the trace files.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

go -C bench build -o "$out/pagoda-bench" .
exec "$out/pagoda-bench" "$@"
