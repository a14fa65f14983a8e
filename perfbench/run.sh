#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it with the given
# arguments. Run from the root of a conair checkout:
#
#   bash perfbench/run.sh --workload recovery --seed 1 --seconds 12 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, its
# config directory) and every output of the benchmark stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a conair checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
