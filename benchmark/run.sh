#!/usr/bin/env bash
# Entry point of the repository benchmark, as BENCHMARK.json names it.
# Builds ./benchmark (its own module, importing the repository through a
# replace directive) into .bench_build/ at the root of the checkout and
# runs it there with the arguments given. Everything the toolchain
# writes — build cache, temporary files, the binary — stays under
# .bench_build/, and so do the unix sockets of the socket workloads.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache" # unused: the modules have no external requirements
export GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/benchmark" .) >&2

cd "$root"
exec "$build/benchmark" "$@"
