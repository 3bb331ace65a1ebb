#!/usr/bin/env bash
# Builds the lpbench harness from this checkout's sources and runs one
# workload. Every build and run artifact stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build).
#
#   bash lpbench/run.sh --workload paper|serve --seed N --seconds S --trace 0|1
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
out=$out/lpbench
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/mod
export XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C "$here" -o "$out/lpbench" .
exec "$out/lpbench" -out "$out" "$@"
