#!/usr/bin/env bash
# Builds vrdfserve and the perfbench program from the checkout it runs in,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload minimize-cold --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and result file goes under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/vrdfserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a vrdfcap checkout (go.mod, cmd/vrdfserve and perfbench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
# Keep the Go caches inside the checkout and never reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

go build -o "$out/vrdfserve" ./cmd/vrdfserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/vrdfserve" -out "$out" "$@"
