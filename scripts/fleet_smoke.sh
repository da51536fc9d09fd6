#!/usr/bin/env bash
# End-to-end smoke test for the sharded fleet: boot two nevermindd shards
# and a nevermindgw gateway in front of them, plus a bare single daemon as
# the reference, ingest the same batch into both sides over HTTP, and
# require the gateway's /v1/rank to equal the single node's modulo the
# version field (the fleet version is the sum of per-shard ingest clocks).
# A second phase runs the weekly pipeline through `nevermindgw -pipeline`
# over one shard and requires its week lines to equal a bare daemon's.
# Used by `make fleet-smoke` (part of `make check`); needs curl and Go.
set -euo pipefail

cd "$(dirname "$0")/.."

GO="${GO:-go}"
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
    for p in "${PIDS[@]-}"; do
        kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "fleet-smoke: FAIL: $*" >&2
    for f in "$WORK"/*.log; do
        echo "--- $(basename "$f") ---" >&2
        cat "$f" >&2 || true
    done
    exit 1
}

echo "fleet-smoke: building nevermindd and nevermindgw"
"$GO" build -o "$WORK/nevermindd" ./cmd/nevermindd
"$GO" build -o "$WORK/nevermindgw" ./cmd/nevermindgw

# All daemons train the same startup model (same lines/seed/rounds), so the
# only difference between the fleet and the single node is the sharding.
DAEMON_FLAGS=(-addr 127.0.0.1:0 -lines 1200 -seed 7 -rounds 20 -pipeline=false)

start_daemon() { # $1 = log name, rest = extra flags
    local log="$WORK/$1.log"
    shift
    "$WORK/nevermindd" "${DAEMON_FLAGS[@]}" "$@" >"$log" 2>&1 &
    PIDS+=($!)
}

# daemon_addr <log name> <pid>: wait for the "listening on" line.
daemon_addr() {
    local log="$WORK/$1.log" pid=$2 addr=""
    for _ in $(seq 1 600); do
        addr="$(sed -n 's/^nevermindd: listening on //p' "$log" | head -n 1)"
        [[ -n "$addr" ]] && break
        kill -0 "$pid" 2>/dev/null || fail "$1 exited before listening"
        sleep 0.2
    done
    [[ -n "$addr" ]] || fail "$1 never reported its listen address"
    echo "$addr"
}

start_daemon single
SINGLE_PID=${PIDS[-1]}
start_daemon shard-0 -fleet.id shard-0 -fleet.peers shard-0,shard-1
S0_PID=${PIDS[-1]}
start_daemon shard-1 -fleet.id shard-1 -fleet.peers shard-0,shard-1
S1_PID=${PIDS[-1]}

SINGLE="$(daemon_addr single "$SINGLE_PID")"
S0="$(daemon_addr shard-0 "$S0_PID")"
S1="$(daemon_addr shard-1 "$S1_PID")"
echo "fleet-smoke: single at $SINGLE, shards at $S0 / $S1"

"$WORK/nevermindgw" -addr 127.0.0.1:0 \
    -shard "shard-0=http://$S0" -shard "shard-1=http://$S1" \
    >"$WORK/gateway.log" 2>&1 &
GW_PID=$!
PIDS+=("$GW_PID")

GW=""
for _ in $(seq 1 100); do
    GW="$(sed -n 's/^nevermindgw: listening on \([^ ]*\).*/\1/p' "$WORK/gateway.log" | head -n 1)"
    [[ -n "$GW" ]] && break
    kill -0 "$GW_PID" 2>/dev/null || fail "gateway exited before listening"
    sleep 0.2
done
[[ -n "$GW" ]] || fail "gateway never reported its listen address"
echo "fleet-smoke: gateway at $GW"

# Wait out the first health-probe round: until it completes the gateway
# reports the fleet degraded.
READY=""
for _ in $(seq 1 100); do
    H="$(curl -fsS "http://$GW/healthz" || true)"
    M="$(curl -fsS "http://$GW/metrics" || true)"
    if grep -q '"status":"ok"' <<<"$H" && grep -q '^fleet_degraded_shards 0$' <<<"$M"; then
        READY=1
        break
    fi
    sleep 0.2
done
[[ -n "$READY" ]] || fail "gateway never reported both shards healthy (healthz: $H)"

# One simulated week of tests for 32 lines (plus three weeks of history so
# scoring has lookback), and one customer ticket.
BATCH="$WORK/batch.json"
{
    printf '{"tests":['
    sep=""
    for week in 38 39 40 41; do
        for line in $(seq 0 31); do
            printf '%s{"line":%d,"week":%d,"f":[1,0.5,0.25],"profile":1,"dslam":2,"usage":0.4}' \
                "$sep" "$line" "$week"
            sep=","
        done
    done
    printf '],"tickets":[{"id":1,"line":3,"day":260,"category":0}]}'
} >"$BATCH"

ingest() { # $1 = host:port
    curl -fsS -X POST -H 'Content-Type: application/json' \
        --data-binary @"$BATCH" "http://$1/v1/ingest"
}
IN_SINGLE="$(ingest "$SINGLE")" || fail "single-node ingest rejected the batch"
IN_GW="$(ingest "$GW")" || fail "gateway ingest rejected the batch"
echo "fleet-smoke: single ingest -> $IN_SINGLE"
echo "fleet-smoke: fleet ingest  -> $IN_GW"
grep -q '"ingested_tests":128' <<<"$IN_SINGLE" || fail "single ingest count wrong"
grep -q '"ingested_tests":128' <<<"$IN_GW" || fail "fleet ingest count wrong: the ring partition dropped records"

# The core contract: the fleet-wide top-N equals the single node's, bit for
# bit, modulo the version field (single: one ingest clock; fleet: the sum of
# the shards').
strip_version() { sed 's/"version":[0-9]*/"version":0/'; }
RANK_SINGLE="$(curl -fsS "http://$SINGLE/v1/rank?week=41&n=10" | strip_version)" \
    || fail "single-node /v1/rank errored"
RANK_GW="$(curl -fsS "http://$GW/v1/rank?week=41&n=10" | strip_version)" \
    || fail "gateway /v1/rank errored"
if [[ "$RANK_GW" != "$RANK_SINGLE" ]]; then
    echo "single: $RANK_SINGLE" >&2
    echo "fleet:  $RANK_GW" >&2
    fail "gateway rank diverged from single node"
fi
echo "fleet-smoke: fleet rank matches single node"

# The per-line API routes to the owning shard and answers like the single.
SCORE_SINGLE="$(curl -fsS -X POST --data '{"examples":[{"line":3,"week":41}]}' \
    "http://$SINGLE/v1/score" | strip_version)" || fail "single /v1/score errored"
SCORE_GW="$(curl -fsS -X POST --data '{"examples":[{"line":3,"week":41}]}' \
    "http://$GW/v1/score" | strip_version)" || fail "gateway /v1/score errored"
[[ "$SCORE_GW" == "$SCORE_SINGLE" ]] \
    || fail "gateway score diverged: single=$SCORE_SINGLE fleet=$SCORE_GW"
echo "fleet-smoke: routed score matches single node"

# Both shards must actually hold an arc: each ingested some of the batch.
for log in shard-0 shard-1; do
    ADDR_VAR="$([ "$log" = shard-0 ] && echo "$S0" || echo "$S1")"
    LINES="$(curl -fsS "http://$ADDR_VAR/healthz" | grep -o '"lines":[0-9]*' | cut -d: -f2)"
    [[ -n "$LINES" && "$LINES" -gt 0 ]] || fail "$log holds no lines; partitioning is broken"
    [[ "$LINES" -lt 32 ]] || fail "$log holds all $LINES lines; ownership filter is off"
    echo "fleet-smoke: $log owns $LINES of 32 lines"
done

# Clean drain: gateway first, then the daemons.
kill -TERM "$GW_PID"
DEADLINE=$((SECONDS + 30))
while kill -0 "$GW_PID" 2>/dev/null; do
    [[ "$SECONDS" -lt "$DEADLINE" ]] || fail "gateway did not exit within 30s of SIGTERM"
    sleep 0.2
done
wait "$GW_PID" || fail "gateway exited non-zero"
grep -q 'drained' "$WORK/gateway.log" || fail "gateway log has no drain message"

# stop_all <pid>...: SIGTERM each process, then require a clean exit.
stop_all() {
    for pid in "$@"; do
        kill -TERM "$pid"
    done
    for pid in "$@"; do
        DEADLINE=$((SECONDS + 30))
        while kill -0 "$pid" 2>/dev/null; do
            [[ "$SECONDS" -lt "$DEADLINE" ]] || fail "process $pid did not exit within 30s of SIGTERM"
            sleep 0.2
        done
        wait "$pid" || fail "process $pid exited non-zero"
    done
}
stop_all "$SINGLE_PID" "$S0_PID" "$S1_PID"
PIDS=()

# Pipeline phase: the weekly loop through the gateway. `nevermindgw
# -pipeline` drives a 1-shard fleet over the same simulated feed a bare
# daemon's own pipeline replays; the two binaries run one loop over two
# backends, so with the binary prefix removed their week and pipeline-done
# lines must be identical.
echo "fleet-smoke: pipeline phase"
start_daemon pshard
PSHARD_PID=${PIDS[-1]}
PSHARD="$(daemon_addr pshard "$PSHARD_PID")"
"$WORK/nevermindgw" -addr 127.0.0.1:0 -shard "s0=http://$PSHARD" -pipeline \
    -lines 1200 -seed 7 -start-week 40 -end-week 42 >"$WORK/pgateway.log" 2>&1 &
PGW_PID=$!
PIDS+=("$PGW_PID")
"$WORK/nevermindd" -addr 127.0.0.1:0 -lines 1200 -seed 7 -rounds 20 \
    -start-week 40 -end-week 42 >"$WORK/pdaemon.log" 2>&1 &
PD_PID=$!
PIDS+=("$PD_PID")

wait_done() { # $1 = log name, $2 = pid: wait for the pipeline's closing line
    for _ in $(seq 1 600); do
        grep -q 'pipeline done' "$WORK/$1.log" && return 0
        grep -q ': pipeline: ' "$WORK/$1.log" && fail "$1 pipeline died"
        kill -0 "$2" 2>/dev/null || fail "$1 exited before its pipeline finished"
        sleep 0.2
    done
    fail "$1 pipeline never finished"
}
wait_done pgateway "$PGW_PID"
wait_done pdaemon "$PD_PID"

week_lines() { # $1 = log name: week and pipeline-done lines, prefix removed
    sed -n 's/^nevermind[a-z]*: \(week [0-9]*: .*\|pipeline done: .*\)$/\1/p' "$WORK/$1.log"
}
WEEKS_GW="$(week_lines pgateway)"
WEEKS_D="$(week_lines pdaemon)"
N_WEEKS="$(grep -c '^week ' <<<"$WEEKS_GW" || true)"
[[ "$N_WEEKS" -eq 3 ]] || fail "gateway pipeline logged $N_WEEKS weeks, want 3"
if [[ "$WEEKS_GW" != "$WEEKS_D" ]]; then
    diff <(echo "$WEEKS_D") <(echo "$WEEKS_GW") >&2 || true
    fail "gateway pipeline lines diverged from the daemon's"
fi
echo "fleet-smoke: gateway pipeline matches the daemon's, week for week"
stop_all "$PGW_PID" "$PD_PID" "$PSHARD_PID"
PIDS=()

echo "fleet-smoke: PASS"
