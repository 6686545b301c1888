#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# started from, then runs it with the given arguments. Everything the build
# writes, the Go build cache included, stays inside the checkout.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$root/.bench_build/plumbench" . >&2
exec "$root/.bench_build/plumbench" "$@"
