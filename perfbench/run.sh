#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with the
# arguments given (--workload NAME --seed N --seconds S --trace 0|1).
# Everything the build and the run leave behind goes under .bench_build at
# the root of the tree: the Go build cache and configuration, the binary, the
# column files and the results.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -data "$build/data" -out "$build/results" "$@"
