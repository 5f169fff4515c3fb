#!/usr/bin/env bash
# Builds the end-to-end fit benchmark from the checkout it is run in
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload mg4 --seed 3 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every build artifact (the Go
# build cache and the binary) stays under .bench_build there; nothing
# is fetched, so a checkout without the repository's module fails the
# build and exits non-zero before any result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
