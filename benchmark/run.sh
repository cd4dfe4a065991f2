#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of
# the checkout (build cache and temporary files included, so nothing is
# written outside the checkout) and runs it from that root with the
# arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Nothing is downloaded (the only dependency is the checkout itself), so
# the module cache stays empty; it is pointed inside the checkout anyway.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/xehe-benchmark" .)
cd "$root"
exec "$build/xehe-benchmark" "$@"
