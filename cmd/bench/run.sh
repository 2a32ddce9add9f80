#!/usr/bin/env bash
# Builds cmd/bench from the checkout it is run in and runs it with the
# arguments given. Everything the build and the run write — Go's build
# cache and temporary files, the binary, the stores' data directories and
# the span files — goes under .bench_build/ of that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/tmp" GOFLAGS="-buildvcs=false"
go build -o "$build/bench" ./cmd/bench
exec "$build/bench" "$@"
