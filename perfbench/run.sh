#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload tpcc-hybrid --seed 1 --seconds 20 --trace 0
# Every build artefact, cache and temporary file stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) in the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

if [ ! -f perfbench/go.mod ] || [ ! -f go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod required)" >&2
	exit 2
fi
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --outdir "$out" "$@"
