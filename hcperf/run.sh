#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash hcperf/run.sh --workload warm_json --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Everything the go command writes
# (build cache, module cache, its config and telemetry) and the binary stay
# under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C hcperf build -o "$out/hcperf" .
exec "$out/hcperf" "$@"
