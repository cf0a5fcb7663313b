#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root; arguments pass through to the benchmark:
#
#   bash servebench/run.sh --workload hot --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) and the traced run's spans stay under .bench_build/servebench.
# The build never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/servebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The go command keeps its telemetry counters under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" --spans "$out" "$@"
