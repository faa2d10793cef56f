#!/usr/bin/env bash
# Builds the BIPS end-to-end benchmark from the source tree it sits in and
# runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload ingest-fanout --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. The build cache, the binary, the
# benchmark's temporary data directories and the traced run's span files
# all live under .bench_build in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$out/bips-perfbench" .
exec "$out/bips-perfbench" --work-dir "$out/work" --span-dir "$out/spans" "$@"
