#!/usr/bin/env bash
# Builds the benchmark runner and the pinocchiod daemon from this
# checkout, then runs one benchmark run:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# temporary files and run scratch all stay under .bench_build/; module
# downloads and toolchain switches are turned off, since the module
# needs neither.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/pinocchiod || ! -f perfbench/go.mod ]]; then
	echo "perfbench/run.sh: run from the repository root (go.mod, cmd/pinocchiod and perfbench/go.mod are required)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/pinocchiod" ./cmd/pinocchiod
go -C perfbench build -o "$out/perfbench" ./cmd/perfbench
exec "$out/perfbench" -daemon "$out/pinocchiod" -build "$out" "$@"
