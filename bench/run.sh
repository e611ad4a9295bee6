#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, from the repository root:
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh -sets 5 -out bench/out/head.json
#
# The binary and the Go build cache stay under .bench_build/ so a run
# reads and writes only inside the checkout. Outside a full checkout the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C bench build -o ../.bench_build/tigabench .
exec .bench_build/tigabench "$@"
