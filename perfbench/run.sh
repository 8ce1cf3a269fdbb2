#!/usr/bin/env bash
# Builds the full-stack benchmark from the sources in this checkout and
# runs it. Every file the Go toolchain writes (build cache, telemetry,
# the binary, per-run store directories) stays under .bench_build/.
#
#   bash perfbench/run.sh --workload fleet-stream --seed 1 --seconds 10 --trace 0
#
# The build fails, and so does this script, when the repository's own
# sources are absent: the benchmark module imports them through a
# replace directive pointing at the checkout root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"

bin="$build/perfbench"
tmp="$build/perfbench.$$"
(
	cd "$root/perfbench"
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		XDG_CACHE_HOME="$build/home/.cache" GOCACHE="$build/gocache" \
		GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		go build -o "$tmp" .
)
mv -f "$tmp" "$bin"
exec "$bin" --workdir "$build" "$@"
