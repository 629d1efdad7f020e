#!/usr/bin/env bash
# Builds the benchmark and the fetchd server from the source tree it is
# run in, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build product, cache and
# temporary file stays under .bench_build in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/fetchd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a fetch source tree (go.mod, cmd/fetchd and perfbench/ required)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local

go build -o "$out/fetchd" ./cmd/fetchd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --fetchd "$out/fetchd" --work "$out/work" "$@"
