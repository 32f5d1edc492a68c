#!/usr/bin/env bash
# Builds scrubbench from this checkout's source and runs it from the
# checkout root, passing every argument through:
#
#   bash bench/run.sh --workload host-fanout --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind — the binary, Go's build cache and
# temporary files — stays inside the checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/scrubbench" ./cmd/scrubbench
cd "$root"
exec "$build/scrubbench" "$@"
