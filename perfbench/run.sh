#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: bash perfbench/run.sh --workload debug --seed 1 --seconds 10 --trace 0
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own state (telemetry counters,
# go env file) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The build's own output goes to stderr: the last line of stdout is
# the result.
(cd "$bench_dir" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" --workdir "$out" "$@"
