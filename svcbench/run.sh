#!/usr/bin/env bash
# Builds the mldcsd service benchmark from source and runs it. Run it from
# the root of a checkout of this repository:
#
#   bash svcbench/run.sh --workload churn-5k --seed 1 --seconds 40 --trace 0
#
# The binary and Go's build and module caches stay under .bench_build/ in
# the checkout; no network access is attempted (GOPROXY=off).
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/mldcsd" ]; then
	echo "svcbench: run from the repository root (no mldcsd sources under $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/svcbench" && go build -o "$out/svcbench" .)
exec "$out/svcbench" "$@"
