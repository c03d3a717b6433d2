#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the repository:
#
#   bash perfbench/run.sh --workload hunt --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
