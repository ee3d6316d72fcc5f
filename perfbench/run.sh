#!/usr/bin/env bash
# Builds the mwskit benchmark from the sources of the checkout it is run
# from and runs it with the given arguments. Run it from the repository
# root:
#
#	bash perfbench/run.sh --workload deposit-fresh --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write lands under .bench_build in the
# current directory: the Go build cache, the binary and the deployment's
# data directories.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOPROXY=off
export GOFLAGS=
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -scratch "$out" -root "$root" "$@"
