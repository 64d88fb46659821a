#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays inside the checkout: the Go build cache and the binary under
# .bench_build/, traces and temporary snapshots under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTOOLCHAIN=local
go build -C bench -o "$build/ilp-bench" .
exec "$build/ilp-bench" "$@"
