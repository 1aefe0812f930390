#!/usr/bin/env bash
# Builds coherbench from the sources of this checkout and runs it from the
# repository root, passing every argument through:
#
#   bash cmd/coherbench/run.sh --workload pipeline --seed 1 --seconds 25 --trace 0
#
# The benchmark is its own Go module (it reaches the repository's packages
# through a replace directive), and everything the build writes -- the Go
# build cache, temporary files and the binary -- stays under .bench_build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/cmd/coherbench" && go build -o "$out/coherbench" .)
cd "$root"
exec "$out/coherbench" "$@"
