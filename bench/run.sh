#!/usr/bin/env bash
# Builds mstcbench from the checkout and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload fig6-flood --seed 2004 --seconds 30 --trace 0
#   bash bench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Every build product (binary, Go build cache, temp files) and every file a
# run writes (scratch files, traces) lands under .bench_build/ in the current
# directory, so a run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/mstcbench" ./mstcbench)
if [ "${1:-}" = compare ]; then
	exec "$out/mstcbench" "$@"
fi
exec "$out/mstcbench" -workdir "$out/work" "$@"
