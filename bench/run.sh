#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it there with the arguments given:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/, so a checkout is only ever written inside
# itself. The first build in a fresh checkout compiles the standard
# library too; later ones are a cache hit.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/bench" && go build -o "$build/fibbench" .) >&2

cd "$root"
exec "$build/fibbench" "$@"
