#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-p64 --seed 1 --seconds 25 --trace 0
#
# Build output, the Go build cache and span dumps stay in the checkout,
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME=$out/config
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2

exec "$out/perfbench" --out "$out" "$@"
