#!/usr/bin/env bash
# Builds nocbench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload fig11-mesh --seed 3 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays in .bench_build at the repository root, so a fresh checkout needs
# nothing outside itself. The first build compiles the standard library
# into that cache and takes longer than later ones.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$build/nocbench" ./nocbench)
cd "$root"
exec "$build/nocbench" "$@"
