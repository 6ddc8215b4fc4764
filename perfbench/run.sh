#!/usr/bin/env bash
# Builds perfbench from source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-serve --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files stay under $CARGO_TARGET_DIR (default
# .bench_build). The build needs the repository's go.mod one level above
# this directory and fails without it.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" "$@"
