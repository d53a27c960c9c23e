#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload fwd_small --seed 1 --seconds 20 --trace 0
#
# The binary and Go's build cache, module cache and scratch directory all
# live under .bench_build/ at the repository root, so a run reads and
# writes nothing outside its checkout. The first build in a fresh checkout
# compiles the standard library too; later runs only relink what changed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps its telemetry counters under the user config
# directory; keep that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"

# The benchmark runs from its own directory: bench/out/ takes the spans.
cd "$here"
go build -o "$build/lispbench" .
exec "$build/lispbench" "$@"
