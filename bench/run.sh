#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh -workload all -seed 1
#   bash bench/run.sh --workload stream --seed 7 --seconds 30 --trace 1
#
# The binary, the Go build cache and the go command's own state live in
# .bench_build/ at the root, so nothing is written outside the checkout.
# The module has no dependencies, so the build never needs the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off \
	go -C "$root/bench" build -o "$out/dpssbench" .
exec "$out/dpssbench" -root "$root" "$@"
