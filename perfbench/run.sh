#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, CPU profiles and spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"

go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" --out "$out/runs" "$@"
