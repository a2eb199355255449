#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build and the run write — Go's build
# cache, its temp files, the binary, snapshots, WALs — lands under
# .bench_build/ (and trace files under benchmark/out/), so nothing outside
# the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root"
go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
