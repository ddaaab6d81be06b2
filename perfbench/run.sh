#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload dmz-bulk --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary and every go command cache
# live under .bench_build/ in that directory, so nothing is written
# outside the checkout. Without the simulator sources beside perfbench/
# the build fails and the script exits nonzero before printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
