#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Everything the build writes stays under .bench_build/ at the
# root of the checkout; nothing is fetched from the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/iflex-benchmark" .)
cd "$root"
exec "$out/iflex-benchmark" "$@"
