#!/usr/bin/env sh
# Daemon smoke test: build pinocchiod, start it on an ephemeral port,
# prove start -> health check -> query -> graceful shutdown end to end.
# Usage: scripts/smoke.sh (or make smoke; also run by scripts/ci.sh).
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
ssepid=""
cleanup() {
    [ -n "$ssepid" ] && kill "$ssepid" 2>/dev/null || true
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== build pinocchiod"
go build -o "$tmp/pinocchiod" ./cmd/pinocchiod

echo "== start"
# -slow-query 1us makes every query slow so the slow-query log record
# can be asserted below; stderr is kept for that check. The data dir
# makes ingest batches pay a real WAL append, so the notify pipeline
# trace asserted below carries a wal-append stage.
"$tmp/pinocchiod" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    -scale 0.05 -candidates 50 -cache-size 16 \
    -data-dir "$tmp/main-state" \
    -slow-query 1us 2>"$tmp/daemon.log" &
pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "daemon did not write addr file" >&2
        exit 1
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "daemon exited before listening" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/addr")
echo "listening on $addr"

echo "== healthz"
curl -fsS "http://$addr/healthz"
echo

echo "== query"
curl -fsS "http://$addr/v1/query" -d '{"tau":0.7,"algorithm":"pin-vo","k":3}'
echo

echo "== cached vs uncached parity"
# The same query answered three ways must agree on the best candidate:
# an influence-index build, an index lookup, and a result-cache hit.
# no_cache bypasses only the result cache, so the first two read the
# index. τ 0.65 is off the engine's 0.7, where queries read the
# engine's influence vectors instead of an index.
q='{"tau":0.65,"algorithm":"pin-vo","no_cache":true}'
best() { sed 's/^{"best":{\([^}]*\)}.*/\1/'; }
b1=$(curl -fsS "http://$addr/v1/query" -d "$q" | best)
b2=$(curl -fsS "http://$addr/v1/query" -d "$q" | best)
b3=$(curl -fsS "http://$addr/v1/query" -d '{"tau":0.65,"algorithm":"pin-vo"}' | best)
b4=$(curl -fsS "http://$addr/v1/query" -d '{"tau":0.65,"algorithm":"pin-vo"}' | best)
echo "index-build:  $b1"
echo "index-lookup: $b2"
echo "result-cache: $b4"
if [ "$b1" != "$b2" ] || [ "$b1" != "$b3" ] || [ "$b1" != "$b4" ]; then
    echo "parity violation between cached and uncached solves" >&2
    exit 1
fi

echo "== engine-vector parity"
# At the engine's own PF/τ a query reads the engine's maintained
# influence vectors, the same ones /v1/best reads, so both must name
# the same winner with the same influence.
e1=$(curl -fsS "http://$addr/v1/query" -d '{"tau":0.7,"algorithm":"pin","no_cache":true}' | best)
e2=$(curl -fsS "http://$addr/v1/best" | best)
echo "query: $e1"
echo "best:  $e2"
if [ "$e1" != "$e2" ]; then
    echo "parity violation between the engine-served query and /v1/best" >&2
    exit 1
fi

echo "== metrics"
curl -fsS "http://$addr/metrics" | grep -c '^pinocchio_' >/dev/null
# The runtime sampler feeds process health into the same registry.
curl -fsS "http://$addr/metrics" | grep -q '^pinocchio_runtime_goroutines'

echo "== explain"
# An explain'd query returns the per-rule cost ledger; the per-pair
# buckets must partition the pair total exactly, and the per-candidate
# verdict counts must cover the whole candidate set.
ex=$(curl -fsS "http://$addr/v1/query" \
    -d '{"tau":0.7,"algorithm":"pin-vo","no_cache":true,"explain":true}')
case "$ex" in
*'"explain"'*) ;;
*) echo "query response missing explain block: $ex" >&2; exit 1 ;;
esac
# Drop the per-candidate verdict rows so each counter name appears only
# in the stats and explain blocks; greedy sed then reads the explain
# (last) occurrence.
exflat=$(printf '%s' "$ex" | sed 's/"verdicts":\[[^]]*\]//')
exfield() {
    v=$(printf '%s' "$exflat" | sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p")
    echo "${v:-0}"
}
pairs=$(exfield pairs_total)
ia=$(exfield pruned_ia)
nibbox=$(exfield pruned_nib_box)
nibarc=$(exfield pruned_nib_arc)
vlive=$(exfield validated_live)
skipped=$(exfield skipped_by_bounds)
sum=$((ia + nibbox + nibarc + vlive + skipped))
echo "pairs=$pairs ia=$ia nib-box=$nibbox nib-arc=$nibarc live=$vlive skipped=$skipped"
if [ "$pairs" -eq 0 ] || [ "$sum" -ne "$pairs" ]; then
    echo "explain buckets sum to $sum, want $pairs: $exflat" >&2
    exit 1
fi
vsum=0
for verdict in winner validated skipped pruned; do
    n=$(printf '%s' "$exflat" |
        sed -n "s/.*\"verdict_counts\":{[^}]*\"$verdict\":\([0-9][0-9]*\).*/\1/p")
    vsum=$((vsum + ${n:-0}))
done
if [ "$vsum" -ne 50 ]; then
    echo "verdict counts sum to $vsum, want the 50 candidates: $exflat" >&2
    exit 1
fi
# The same counts aggregate into the metric registry.
metrics=$(curl -fsS "http://$addr/metrics")
for metric in pinocchio_pairs_pruned_rule_total pinocchio_pairs_validated_src_total \
    pinocchio_last_prune_ratio pinocchio_explained_queries_total; do
    printf '%s\n' "$metrics" | grep -q "^$metric" || {
        echo "metrics missing $metric" >&2
        exit 1
    }
done

echo "== request telemetry"
# A client-supplied X-Request-ID is echoed (Go canonicalizes the header
# casing) and keys the retained trace.
rid="smoke-trace-1"
hdrs=$(curl -fsS -D - -o "$tmp/qresp" "http://$addr/v1/query" \
    -H "X-Request-ID: $rid" \
    -d '{"tau":0.6,"algorithm":"pin","no_cache":true}')
case "$hdrs" in
*"X-Request-ID: $rid"* | *"X-Request-Id: $rid"*) ;;
*) echo "X-Request-ID not echoed:" >&2; echo "$hdrs" >&2; exit 1 ;;
esac
grep -q "\"trace_id\":\"$rid\"" "$tmp/qresp" || {
    echo "query response missing trace_id" >&2
    exit 1
}

# The retained trace carries the solver's span tree with its phases.
trace=$(curl -fsS "http://$addr/v1/debug/traces/$rid")
case "$trace" in
*'"prune"'*) ;;
*) echo "trace missing prune phase: $trace" >&2; exit 1 ;;
esac
case "$trace" in
*'"validate"'*) ;;
*) echo "trace missing validate phase: $trace" >&2; exit 1 ;;
esac

# The listing filters and the status percentiles are wired through.
curl -fsS "http://$addr/v1/debug/traces?outcome=ok&min_ms=0" |
    grep -q "\"$rid\"" || {
    echo "trace listing missing $rid" >&2
    exit 1
}
curl -fsS "http://$addr/v1/status" | grep -q '"p99_ms"' || {
    echo "status missing latency percentiles" >&2
    exit 1
}

# -slow-query 1us flags every query: the phase breakdown must have hit
# the log.
grep -q "slow query" "$tmp/daemon.log" || {
    echo "no slow-query log record in daemon log" >&2
    exit 1
}

echo "== subscriptions"
# A standing query over two fresh far-away candidates: the seed dataset
# (coordinates within a few tens of units of the origin) cannot
# influence them, so the winner is fully determined by the object we
# stream. Register, flip the top-1 with one
# ingest batch, and assert the SSE push carries the new winner.
ca=$(curl -fsS "http://$addr/v1/candidates" -d '{"x":500,"y":500}' |
    sed -n 's/.*"id":\([0-9][0-9]*\).*/\1/p')
cb=$(curl -fsS "http://$addr/v1/candidates" -d '{"x":510,"y":510}' |
    sed -n 's/.*"id":\([0-9][0-9]*\).*/\1/p')
curl -fsS "http://$addr/v1/objects" \
    -d '{"id":8001,"positions":[{"x":560,"y":560}]}' >/dev/null
sub=$(curl -fsS "http://$addr/v1/subscribe" \
    -d "{\"tau\":0.7,\"k\":1,\"candidates\":[$ca,$cb]}")
sid=$(printf '%s' "$sub" | sed -n 's/.*"subscription":"\([^"]*\)".*/\1/p')
# Far from everything: both candidates tie at influence 0, id order
# makes the lower-id candidate the initial winner.
case "$sub" in
*"\"id\":$ca"*) ;;
*) echo "initial subscription answer should pick candidate $ca: $sub" >&2; exit 1 ;;
esac

curl -sN --max-time 60 "http://$addr/v1/subscriptions/$sid/events" >"$tmp/sse" &
ssepid=$!
i=0
until grep -q "event: result" "$tmp/sse" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "no initial SSE frame" >&2; exit 1; }
    sleep 0.1
done

# One ingest batch moves object 8001 onto candidate $cb: its cumulative
# influence probability jumps past tau and the top-1 flips.
curl -fsS "http://$addr/v1/ingest" \
    -d '{"appends":[{"id":8001,"positions":[{"x":510,"y":510}]}]}'
echo
i=0
until grep -q "^id: 2" "$tmp/sse" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "no SSE push after flip batch" >&2; exit 1; }
    sleep 0.1
done
flip=$(grep -A 2 "^id: 2" "$tmp/sse" | grep "^data: ")
case "$flip" in
*"\"id\":$cb"*) ;;
*) echo "flip event should carry winner $cb: $flip" >&2; exit 1 ;;
esac
case "$flip" in
*'"trace_id":"'*) ;;
*) echo "flip event missing trace_id: $flip" >&2; exit 1 ;;
esac

# A batch for an object far from both candidates re-solves the
# subscription, finds the same top-1 and publishes nothing: version
# stays 2.
curl -fsS "http://$addr/v1/objects" \
    -d '{"id":8002,"positions":[{"x":800,"y":800}]}' >/dev/null
curl -fsS "http://$addr/v1/ingest" \
    -d '{"appends":[{"id":8002,"positions":[{"x":801,"y":801}]}]}' >/dev/null
sleep 0.5
if grep -q "^id: 3" "$tmp/sse"; then
    echo "no-op batch must not push an event:" >&2
    cat "$tmp/sse" >&2
    exit 1
fi

echo "== ingest pipeline trace"
# An ingest that flips the standing top-1 must leave one causal trace
# tree under the client's X-Request-ID: the asynchronous notify
# pipeline (wal-append -> queue-wait -> solve -> publish) is retained
# under the same ID the ingest was traced with. Moving 8001 onto
# candidate $ca ties the pair and the id tie-break flips the winner
# back, so this batch provably publishes. The re-solve runs behind the
# ingest response, hence the retry poll.
curl -fsS "http://$addr/v1/ingest" -H "X-Request-ID: smoke-pipe-1" \
    -d '{"appends":[{"id":8001,"positions":[{"x":500,"y":500}]}]}' >/dev/null
i=0
until curl -fsS "http://$addr/v1/debug/traces/smoke-pipe-1" 2>/dev/null |
    grep -q '"publish"'; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && {
        echo "no notify pipeline trace under the ingest trace ID" >&2
        exit 1
    }
    sleep 0.1
done
pipe=$(curl -fsS "http://$addr/v1/debug/traces/smoke-pipe-1")
case "$pipe" in
*'"kind":"notify"'*) ;;
*) echo "trace under ingest ID is not the notify pipeline: $pipe" >&2; exit 1 ;;
esac
for span in wal-append queue-wait solve publish; do
    case "$pipe" in
    *"\"$span\""*) ;;
    *) echo "pipeline trace missing $span span: $pipe" >&2; exit 1 ;;
    esac
done
# The pipeline stage histogram fed by those spans is exported.
curl -fsS "http://$addr/metrics" | grep -q '^pinocchio_sub_pipeline_stage_seconds' || {
    echo "metrics missing pinocchio_sub_pipeline_stage_seconds" >&2
    exit 1
}

echo "== slo status"
# The default -slo spec arms the monitor; /v1/status must carry a
# populated slo block with every objective and its burn-rate windows.
slostatus=$(curl -fsS "http://$addr/v1/status")
case "$slostatus" in
*'"slo":['*) ;;
*) echo "status missing slo block: $slostatus" >&2; exit 1 ;;
esac
for objective in query_p99 notify_p99 ingest_p99; do
    case "$slostatus" in
    *"\"name\":\"$objective\""*) ;;
    *) echo "slo block missing $objective: $slostatus" >&2; exit 1 ;;
    esac
done
case "$slostatus" in
*'"windows":['*) ;;
*) echo "slo block missing burn-rate windows: $slostatus" >&2; exit 1 ;;
esac
curl -fsS "http://$addr/metrics" | grep -q '^pinocchio_slo_burn_rate' || {
    echo "metrics missing pinocchio_slo_burn_rate" >&2
    exit 1
}

echo "== optimize"
# Candidate-free placement: the returned best point's influence must
# reproduce exactly when registered as a candidate and queried back
# through the incremental engine (same PF/τ defaults on both paths).
opt=$(curl -fsS "http://$addr/v1/optimize" -d '{"tau":0.7}')
echo "$opt" | grep -q '"resolved":' || {
    echo "optimize response missing resolution verdict: $opt" >&2
    exit 1
}
opt_x=$(echo "$opt" | sed 's/.*"best":{"x":\([^,]*\),.*/\1/')
opt_y=$(echo "$opt" | sed 's/.*"best":{"x":[^,]*,"y":\([^}]*\)}.*/\1/')
opt_inf=$(echo "$opt" | sed 's/.*"best_influence":\([0-9]*\).*/\1/')
opt_id=$(curl -fsS "http://$addr/v1/candidates" -d "{\"x\":$opt_x,\"y\":$opt_y}" |
    sed 's/.*"id":\([0-9]*\).*/\1/')
engine_inf=$(curl -fsS "http://$addr/v1/influence/$opt_id" |
    sed 's/.*"influence":\([0-9]*\).*/\1/')
echo "optimize placed at ($opt_x, $opt_y): influence $opt_inf, engine says $engine_inf"
if [ "$opt_inf" != "$engine_inf" ]; then
    echo "optimize influence $opt_inf diverges from engine influence $engine_inf" >&2
    exit 1
fi
# A repeat on the mutated epoch is a fresh solve, not a stale hit; the
# ledger travels with the response either way.
opt2=$(curl -fsS "http://$addr/v1/optimize" -d '{"tau":0.7}')
echo "$opt2" | grep -q '"cost":' || {
    echo "optimize response missing cost ledger" >&2
    exit 1
}
curl -fsS "http://$addr/metrics" | grep -q '^pinocchio_optimize_total' || {
    echo "metrics missing pinocchio_optimize_total" >&2
    exit 1
}
curl -fsS "http://$addr/metrics" | grep -q '^pinocchio_optimize_swept_rects_total' || {
    echo "metrics missing pinocchio_optimize_swept_rects_total" >&2
    exit 1
}
curl -fsS "http://$addr/v1/status" | grep -q '"optimize":{' &&
    curl -fsS "http://$addr/v1/status" | grep -q '"runs":[1-9]' || {
    echo "status work block missing optimize runs" >&2
    exit 1
}
# Non-finite coordinates must be rejected before they can poison the
# engine or WAL.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/objects" \
    -d '{"id":8003,"positions":[{"x":1e999,"y":0}]}')
if [ "$code" != "400" ]; then
    echo "non-finite coordinate accepted with status $code" >&2
    exit 1
fi

echo "== shutdown"
kill -TERM "$pid"
wait "$pid"
pid=""
# Graceful shutdown must have closed the SSE stream with a terminal
# goodbye event rather than cutting the connection.
wait "$ssepid" 2>/dev/null || true
ssepid=""
grep -q "event: goodbye" "$tmp/sse" || {
    echo "SSE stream missing goodbye event on shutdown:" >&2
    cat "$tmp/sse" >&2
    exit 1
}

echo "== crash recovery"
# Start a durable daemon, stream mutations, kill -9 mid-flight, restart
# on the same data directory, and check the recovered /v1/best and
# /v1/influence views match a clean single-process run of the same
# stream in a fresh directory.

# start_durable <data-dir> <addr-file>: boots a durable daemon and sets $pid.
start_durable() {
    rm -f "$2"
    "$tmp/pinocchiod" -addr 127.0.0.1:0 -addr-file "$2" \
        -scale 0.05 -candidates 50 -cache-size 16 \
        -data-dir "$1" -fsync always -checkpoint-every 4 &
    pid=$!
    i=0
    while [ ! -s "$2" ]; do
        i=$((i + 1))
        if [ "$i" -gt 200 ]; then
            echo "durable daemon did not write addr file" >&2
            exit 1
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "durable daemon exited before listening" >&2
            exit 1
        fi
        sleep 0.1
    done
    addr=$(cat "$2")
}

# mutate_stream: the fixed mutation sequence both runs replay. Crosses
# a checkpoint boundary (-checkpoint-every 4) so recovery exercises
# checkpoint + WAL-suffix replay, not just one of them.
mutate_stream() {
    curl -fsS "http://$addr/v1/candidates" -d '{"x":0.5,"y":0.5}' >/dev/null
    curl -fsS "http://$addr/v1/objects" -d '{"id":9001,"positions":[{"x":0.5,"y":0.5}]}' >/dev/null
    for k in 1 2 3 4 5; do
        curl -fsS "http://$addr/v1/objects/9001/positions" \
            -d "{\"x\":0.5$k,\"y\":0.5$k}" >/dev/null
    done
    curl -fsS -X DELETE "http://$addr/v1/candidates/3" >/dev/null
    curl -fsS -X PUT "http://$addr/v1/objects/9001" \
        -d '{"positions":[{"x":0.51,"y":0.51},{"x":0.52,"y":0.52}]}' >/dev/null
}

views() {
    curl -fsS "http://$addr/v1/best"
    curl -fsS "http://$addr/v1/influence/0"
}

start_durable "$tmp/state" "$tmp/addr2"
mutate_stream
echo "kill -9 $pid"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

start_durable "$tmp/state" "$tmp/addr3"
recovered=$(views)
kill -TERM "$pid"; wait "$pid"; pid=""

# Clean reference: same stream, one uninterrupted process, fresh dir.
start_durable "$tmp/state-ref" "$tmp/addr4"
mutate_stream
reference=$(views)
kill -TERM "$pid"; wait "$pid"; pid=""

echo "recovered: $recovered"
if [ "$recovered" != "$reference" ]; then
    echo "recovered state diverged from clean replay:" >&2
    echo "reference: $reference" >&2
    exit 1
fi

# A second restart must come up from the shutdown checkpoint alone.
start_durable "$tmp/state" "$tmp/addr5"
status=$(curl -fsS "http://$addr/v1/status")
case "$status" in
*'"durable":true'*) ;;
*) echo "status not durable after restart: $status" >&2; exit 1 ;;
esac
kill -TERM "$pid"; wait "$pid"; pid=""

echo "== scatter attribution"
# A solve on a 4-shard daemon scatters per shard; its trace must carry
# one child span per shard plus the gather's straggler accounting
# (max/min/imbalance) so a slow shard is attributable from the trace
# alone.
rm -f "$tmp/addr6"
"$tmp/pinocchiod" -addr 127.0.0.1:0 -addr-file "$tmp/addr6" \
    -shards 4 -scale 0.05 -candidates 50 &
pid=$!
i=0
while [ ! -s "$tmp/addr6" ]; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "4-shard daemon did not write addr file" >&2
        exit 1
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "4-shard daemon exited before listening" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/addr6")
curl -fsS "http://$addr/v1/query" -H "X-Request-ID: smoke-scatter-1" \
    -d '{"tau":0.7,"algorithm":"pin","no_cache":true}' >/dev/null
scatter=$(curl -fsS "http://$addr/v1/debug/traces/smoke-scatter-1")
for span in shard-0 shard-1 shard-2 shard-3; do
    case "$scatter" in
    *"\"$span\""*) ;;
    *) echo "scatter trace missing $span span: $scatter" >&2; exit 1 ;;
    esac
done
for attr in shard_imbalance shard_max_ms shard_min_ms; do
    case "$scatter" in
    *"\"$attr\""*) ;;
    *) echo "scatter trace missing $attr stat: $scatter" >&2; exit 1 ;;
    esac
done
curl -fsS "http://$addr/v1/status" | grep -q '"scatter"' || {
    echo "status missing per-shard scatter block" >&2
    exit 1
}
kill -TERM "$pid"; wait "$pid"; pid=""

echo "== smoke ok"
