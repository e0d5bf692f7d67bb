#!/usr/bin/env sh
# CI gate: formatting, vet, build, race-enabled tests and a bench
# snapshot smoke run. Usage: scripts/ci.sh (or make ci).
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

echo "== influence index exactness -race"
# The index answers every τ of an interval from sorted non-influence
# products; these pin it to NA bit for bit (the boundary probe and the
# randomized property over every PF family), and the serving stress
# test drives index builds, snapshot swaps and mutations concurrently.
go test -race -run 'TestIndexBoundaryProbe|TestIndexMatchesNA|TestPinocchioVOTieBreak' ./internal/core
go test -race -run 'TestServeStressNo500' ./internal/server

echo "== optimize dominance -race"
# The bound-soundness property: the candidate-free optimizer's answer
# (plus its reported gap) must dominate any dense-grid enumeration.
# Randomized, and the refinement heap is the newest pointer-heavy
# code, so run it under the race detector explicitly.
go test -race -run 'TestOptimizeDominatesGrid' ./internal/optimize

echo "== fuzz smoke"
# Short fuzz runs over the WAL frame, record, and sweep-event codecs:
# enough to catch coarse regressions without holding CI hostage.
go test -run '^$' -fuzz '^FuzzFrame$' -fuzztime 10s ./internal/wal
go test -run '^$' -fuzz '^FuzzRecord$' -fuzztime 10s ./internal/store
go test -run '^$' -fuzz '^FuzzEventCodec$' -fuzztime 10s ./internal/optimize

echo "== benchguard"
# Warm-path regression guard over the two newest checked-in core-bench
# snapshots: >25% wall-time growth on any shared algorithms[] row fails.
sh scripts/benchguard.sh

echo "== bench snapshot smoke"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/experiments -bench "$tmp/bench.json" -bench-scale 0.02 -bench-iters 1
head -c 200 "$tmp/bench.json"
echo

echo "== sharded serving smoke"
# Boot a 2-shard daemon, drive a short mixed load through cmd/loadgen,
# and require that some queries actually took the scatter-gather path
# (non-zero cross-shard merge count in /v1/status).
go build -o "$tmp/pinocchiod" ./cmd/pinocchiod
go build -o "$tmp/loadgen" ./cmd/loadgen
"$tmp/pinocchiod" -addr 127.0.0.1:0 -addr-file "$tmp/shard-addr" \
    -shards 2 -scale 0.05 -candidates 50 &
shardpid=$!
trap 'kill "$shardpid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
i=0
while [ ! -s "$tmp/shard-addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "sharded daemon did not write addr file" >&2
        exit 1
    fi
    if ! kill -0 "$shardpid" 2>/dev/null; then
        echo "sharded daemon exited before listening" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/shard-addr")
"$tmp/loadgen" -url "http://$addr" -duration 2s -workers 2 \
    -max-ops 40 -out "$tmp/loadgen.json"
head -c 400 "$tmp/loadgen.json"
echo
grep -q '"errors": 0' "$tmp/loadgen.json" || {
    echo "loadgen run reported request errors" >&2
    exit 1
}
status=$(curl -fsS "http://$addr/v1/status")
merges=$(printf '%s' "$status" |
    sed -n 's/.*"scatter_merges":\([0-9][0-9]*\).*/\1/p')
echo "scatter_merges=${merges:-0}"
if [ "${merges:-0}" -eq 0 ]; then
    echo "no cross-shard merges on a 2-shard daemon: $status" >&2
    exit 1
fi
kill "$shardpid"
wait "$shardpid" 2>/dev/null || true
shardpid=""
trap 'rm -rf "$tmp"' EXIT

echo "== daemon smoke"
sh scripts/smoke.sh

echo "== ci ok"
