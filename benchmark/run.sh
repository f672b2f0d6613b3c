#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source
# inside the checkout, then run it from the checkout's root with the
# driver's arguments. Everything the build and the run write (Go build
# cache, binary, journals, checkpoints) goes under .bench_build/ and
# benchmark/out/, both git-ignored.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The commit goes into the machine fingerprint; a checkout that is not a
# git repository reports "unknown".
export BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)}"
(cd "$here" && go build -buildvcs=false -o "$build/fcds-benchmark" .) >&2
cd "$root"
exec "$build/fcds-benchmark" "$@"
