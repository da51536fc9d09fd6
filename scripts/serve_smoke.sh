#!/usr/bin/env bash
# End-to-end smoke test for the nevermindd daemon: boot on a random port,
# ingest a small batch over HTTP, check /healthz, /v1/score, /v1/rank and
# the request counters on /metrics, then make sure SIGTERM drains cleanly.
# Used by `make serve-smoke` (part of `make check`); needs only curl and a
# Go toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

GO="${GO:-go}"
WORK="$(mktemp -d)"
LOG="$WORK/nevermindd.log"
PID=""

cleanup() {
    if [[ -n "$PID" ]] && kill -0 "$PID" 2>/dev/null; then
        kill -9 "$PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

echo "serve-smoke: building nevermindd"
"$GO" build -o "$WORK/nevermindd" ./cmd/nevermindd

# Small population and few boosting rounds: the daemon trains its model at
# startup, and the smoke only cares that the serving path works.
"$WORK/nevermindd" -addr 127.0.0.1:0 -lines 1200 -seed 7 -rounds 20 \
    -pipeline=false >"$LOG" 2>&1 &
PID=$!

# The daemon prints "nevermindd: listening on HOST:PORT" once it is up;
# training the startup model takes a few seconds.
ADDR=""
for _ in $(seq 1 600); do
    ADDR="$(sed -n 's/^nevermindd: listening on //p' "$LOG" | head -n 1)"
    [[ -n "$ADDR" ]] && break
    kill -0 "$PID" 2>/dev/null || fail "daemon exited before listening"
    sleep 0.2
done
[[ -n "$ADDR" ]] || fail "daemon never reported its listen address"
echo "serve-smoke: daemon up at $ADDR"

BASE="http://$ADDR"

curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' \
    || fail "/healthz did not answer ok"

# Hand-built batch: 32 lines, four weeks of tests each, plus one ticket.
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

INGEST="$(curl -fsS -X POST -H 'Content-Type: application/json' \
    --data-binary @"$BATCH" "$BASE/v1/ingest")" \
    || fail "/v1/ingest rejected the batch"
echo "serve-smoke: ingest -> $INGEST"
echo "$INGEST" | grep -q '"ingested_tests":128' \
    || fail "ingest did not accept 128 tests: $INGEST"

RANK="$(curl -fsS "$BASE/v1/rank?week=41&n=5")" \
    || fail "/v1/rank errored"
GOT=$(grep -o '"line":' <<<"$RANK" | wc -l)
[[ "$GOT" -eq 5 ]] || fail "/v1/rank returned $GOT predictions, want 5: $RANK"
echo "serve-smoke: rank returned 5 predictions"

SCORE="$(curl -fsS -X POST -H 'Content-Type: application/json' \
    --data '{"examples":[{"line":3,"week":41},{"line":7,"week":41}]}' \
    "$BASE/v1/score")" || fail "/v1/score errored"
GOT=$(grep -o '"probability":' <<<"$SCORE" | wc -l)
[[ "$GOT" -eq 2 ]] || fail "/v1/score returned $GOT predictions, want 2: $SCORE"
echo "serve-smoke: score returned 2 predictions"

# /metrics counted exactly the API traffic above.
METRICS="$(curl -fsS "$BASE/metrics")" || fail "/metrics errored"
for route in ingest score rank; do
    grep -qx "nevermind_http_requests_total{route=\"$route\"} 1" <<<"$METRICS" \
        || fail "/metrics does not count one $route request"
done

kill -TERM "$PID"
DEADLINE=$((SECONDS + 30))
while kill -0 "$PID" 2>/dev/null; do
    [[ "$SECONDS" -lt "$DEADLINE" ]] || fail "daemon did not exit within 30s of SIGTERM"
    sleep 0.2
done
wait "$PID" || fail "daemon exited non-zero"
grep -q 'drained' "$LOG" || fail "daemon log has no drain message"
PID=""

echo "serve-smoke: PASS"
