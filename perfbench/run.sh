#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload explore-cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, the generated repositories and every
# engine directory live under .bench_build/ in the current directory, so
# a run reads and writes nothing outside the checkout besides the Go
# toolchain itself.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
