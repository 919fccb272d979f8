#!/usr/bin/env bash
# Builds the benchmark and cmd/loadgen, which drives serve-mixed, from
# source and runs the benchmark with the given arguments. Run from the repository root: every build cache, temporary
# file and output stays inside the checkout (.bench_build/, bench/out/).
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload explore-cold --seed 2 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's user configuration and telemetry live under HOME.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
# Everything builds from the checkout: no toolchain or module downloads.
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
mkdir -p "$GOTMPDIR" "$HOME"
(cd "$root/bench" && go build -o "$build/bench" . && go build -o "$build/loadgen" repro/cmd/loadgen)
exec "$build/bench" "$@"
