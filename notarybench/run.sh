#!/usr/bin/env bash
# Builds the notary benchmark from the sources of this checkout and runs it
# with the given arguments:
#
#   bash notarybench/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under the build
# directory (CARGO_TARGET_DIR when set, else .bench_build), including the Go
# build cache, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C notarybench -o "$out/notarybench" .
exec "$out/notarybench" -out "$out" "$@"
