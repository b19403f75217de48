#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Every build artefact (Go build cache, binary, temporary files,
# traces) stays under .bench_build in that checkout. Run from the
# checkout root:
#
#   bash loadbench/run.sh --workload kv_read --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/loadbench" && go build -o "$build/loadbench" .) >&2
exec "$build/loadbench" "$@"
