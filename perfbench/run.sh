#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload sweep-gst --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# Go build cache, the binaries, temporary files and traces.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (sources not found)" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
