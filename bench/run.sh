#!/usr/bin/env bash
# run.sh builds the benchmark and the cmd/experiments binary from source,
# then runs the benchmark with the given arguments. Run it from the root of
# the repository:
#
#   bash bench/run.sh --workload stacked-mgrid --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh                       # every workload, seed 1
#
# Everything it builds, including the Go build cache, lands in
# .bench_build/ at the root, so a run writes nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/nimbench" .)
go build -o "$out/experiments" ./cmd/experiments
exec "$out/nimbench" "$@"
