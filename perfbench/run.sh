#!/usr/bin/env bash
# Builds the benchmark from the sources of the current checkout and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-cycle --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and every output stay inside the
# checkout (.bench_build for the build, .bench_out for run records and
# span files).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
