#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the Go toolchain
# writes (build cache, temporary files, telemetry counters, the binary) is
# kept inside the checkout, and nothing is fetched.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
(cd "$root/benchmark" && env GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -o "$build/rptcn-bench" .)
exec "$build/rptcn-bench" "$@"
