#!/usr/bin/env bash
# Builds comaserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Everything the build and the runs
# leave behind (binaries, Go build cache, stores, traces) goes under
# .bench_build at the checkout root.
#
#   bash perfbench/run.sh --workload serve-topk --seed 1 --seconds 15 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root" && go build -o "$out/comaserve" ./cmd/comaserve) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -out "$out" "$@"
