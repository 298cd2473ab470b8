#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it.
#
#   bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and trace
# file goes under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"

# Keep the Go toolchain's caches and config inside the checkout, and
# never let it reach for the network.
export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export HOME=$out/home
export XDG_CONFIG_HOME=$out/home
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
