#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one pass:
#   bash bench/run.sh --workload static_inmem --seed 1 --seconds 10 --trace 0
# Everything the build and the run write goes under .bench_build/ at the
# checkout root. In a directory without the program's sources the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/mnemo-bench" .) >&2
cd "$root"
exec "$build/mnemo-bench" -tmp "$build/tmp" "$@"
