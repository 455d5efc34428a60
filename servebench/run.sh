#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it. Run from
# the repository root:
#
#   bash servebench/run.sh --workload pen-down --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and Go's temporary files stay under
# .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
