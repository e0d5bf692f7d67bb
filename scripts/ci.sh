#!/usr/bin/env sh
# CI gate: formatting, vet, build, race-enabled tests, the benchmark's
# self-test and a daemon smoke run. Usage: scripts/ci.sh (or make ci).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== sharded parity -race"
# The scatter-gather merge and per-shard mutation locking are the
# concurrency-critical surface: run their parity tests explicitly under
# the race detector even when the suite above is trimmed locally.
go test -race -run 'TestSharded' ./internal/server

echo "== influence exactness (solvers, index, engine, seed, guard, served, optimize) -race"
# Every path decides Definition 2 as NA does: pruning by the
# margin-checked radii (object.MarginTable) and the early stop at
# object.EarlyStopBar, shared by every static solver, the influence
# index, the incremental engine, the guard and optimize. The boundary
# probes place one check-in and one candidate at, and an ulp either
# side of, the distance where PF = τ: the core probe runs every static
# solver entry point (with and without a plan) and the index against
# NA, the served probe sends pin, pin-vo, pin-par and pin-vo* plain,
# with explain and to a live (-plan-cache 0) server, and the optimize
# probe evaluates exactAt and a point cell's bound there.
# TestAlgorithmsAgree repeats the solver check on random instances of
# every PF family. The index property test walks widening intervals,
# and the served engine path is checked against a live server and NA
# over a random ingest stream. The guard probe checks that TopKGuard
# (armed by perfbench's traced replay) never certifies a top-k that
# NA's verdict has flipped, and the serving stress test drives index
# builds, engine-vector reads, snapshot swaps and mutations
# concurrently. The seed parity test requires the boot seed
# (object-major, one goroutine per shard) to build the state and
# counters the candidate-major loop builds; it is repeated so the
# detector sees many shard interleavings.
go test -race -run 'TestIndexBoundaryProbe|TestIndexMatchesNA|TestPinocchioVOTieBreak|TestAlgorithmsAgree|TestExtremeTaus' ./internal/core
go test -race -run 'TestEngineBoundaryProbe|TestGuardBoundaryProbe' ./internal/dynamic
go test -race -count=10 -run 'TestSeedMatchesCandidateMajor' ./internal/dynamic
go test -race -run 'TestServeStressNo500|TestEnginePathParity|TestServedBoundaryProbe' ./internal/server
go test -race -run 'TestExactAtBoundaryProbe' ./internal/optimize

echo "== optimize dominance -race"
# The bound-soundness property: the candidate-free optimizer's answer
# (plus its reported gap) must dominate any dense-grid enumeration.
# Randomized, and the refinement heap is the newest pointer-heavy
# code, so run it under the race detector explicitly. Refinement splits
# its cover scans across goroutines: the determinism test requires the
# same Result and Cost at GOMAXPROCS 1, 2 and 4, repeated so the
# detector sees many block interleavings.
go test -race -run 'TestOptimizeDominatesGrid' ./internal/optimize
go test -race -count=10 -run 'TestOptimizeDeterministicAcrossProcs' ./internal/optimize

echo "== fuzz smoke"
# Short fuzz runs over the WAL frame, record, and sweep-event codecs
# and the check-in CSV loader: enough to catch coarse regressions
# without holding CI hostage.
go test -run '^$' -fuzz '^FuzzFrame$' -fuzztime 10s ./internal/wal
go test -run '^$' -fuzz '^FuzzRecord$' -fuzztime 10s ./internal/store
go test -run '^$' -fuzz '^FuzzEventCodec$' -fuzztime 10s ./internal/optimize
go test -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime 10s ./internal/dataset

echo "== perfbench self-test"
# perfbench is a module of its own, so the root ./... above neither
# vets nor tests it. Its self-test builds pinocchiod from this checkout
# and boots it for every workload (paper-sweep, monitor and the
# unlisted serve-mixed), untraced and traced, and requires correct:
# true against the exact oracle plus every BENCHMARK.json metric in the
# result line. -count=1: the daemon it boots is built by the test, so a
# cached pass would not cover a daemon change.
go -C perfbench vet ./...
(cd perfbench && go test -count=1 -v ./...)

echo "== daemon smoke"
sh scripts/smoke.sh

echo "== ci ok"
