#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload train-s3 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary stay under $CARGO_TARGET_DIR (default .bench_build), so a run
# writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/gocache" "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
