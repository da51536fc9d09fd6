#!/usr/bin/env bash
# Chaos-soak harness for the nevermindd serving stack.
#
# Two layers:
#   1. The long-mode Go soak (-tags soak): N weeks of the pipeline under
#      five independent fault seeds, asserting convergence to a clean
#      replay (skipped with --smoke).
#   2. A daemon-level run: boot nevermindd with every chaos fault mode
#      armed and the weekly pipeline on, then assert from the outside that
#      the daemon rides the fault storm out — every week completes exactly
#      once, /healthz answers throughout, the final ranking serves, and
#      SIGTERM still drains cleanly.
#
# `make chaos-smoke` runs `chaos_soak.sh --smoke` (few weeks, part of
# `make check`); `make chaos-soak` runs the full version.
set -euo pipefail

cd "$(dirname "$0")/.."

GO="${GO:-go}"
MODE=full
[[ "${1:-}" == "--smoke" ]] && MODE=smoke

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
    echo "chaos-soak: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

if [[ "$MODE" == "full" ]]; then
    echo "chaos-soak: running long-mode Go soak (-tags soak)"
    "$GO" test -tags soak -run TestChaosSoakLong -count=1 ./internal/chaos/ \
        || fail "long-mode Go soak failed"
fi

echo "chaos-soak: building nevermindd"
"$GO" build -o "$WORK/nevermindd" ./cmd/nevermindd

START_WEEK=40
END_WEEK=43
[[ "$MODE" == "full" ]] && END_WEEK=51

# Every fault mode armed at double-digit rates; tight backoffs so the run
# stays quick. The schedule is seeded, so this run is reproducible.
"$WORK/nevermindd" -addr 127.0.0.1:0 -lines 1200 -seed 7 -rounds 20 \
    -start-week "$START_WEEK" -end-week "$END_WEEK" \
    -retry.attempts 20 -retry.base 1ms -retry.max 20ms \
    -chaos.seed 7 \
    -chaos.source-error 0.25 -chaos.partial-batch 0.20 -chaos.malformed-batch 0.20 \
    -chaos.ingest-error 0.20 -chaos.snapshot-error 0.25 -chaos.reload-error 0.50 \
    -chaos.slow-shard 0.30 -chaos.shard-delay 5ms \
    -chaos.slow-request 0.20 -chaos.request-delay 5ms \
    >"$LOG" 2>&1 &
PID=$!

ADDR=""
for _ in $(seq 1 600); do
    ADDR="$(sed -n 's/^nevermindd: listening on //p' "$LOG" | head -n 1)"
    [[ -n "$ADDR" ]] && break
    kill -0 "$PID" 2>/dev/null || fail "daemon exited before listening"
    sleep 0.2
done
[[ -n "$ADDR" ]] || fail "daemon never reported its listen address"
BASE="http://$ADDR"

grep -q 'CHAOS armed' "$LOG" || fail "chaos layer did not arm"
echo "chaos-soak: daemon up at $ADDR with chaos armed"

# The pipeline rides the fault storm while we hammer the health check: it
# must answer ok on every poll, faults or not.
DONE=""
for _ in $(seq 1 600); do
    curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' \
        || fail "/healthz failed mid-storm"
    if grep -q 'pipeline done' "$LOG"; then
        DONE=yes
        break
    fi
    kill -0 "$PID" 2>/dev/null || fail "daemon died mid-pipeline"
    sleep 0.2
done
[[ -n "$DONE" ]] || fail "pipeline did not finish in time"

# Exactly-once dispatch: every week logged once, no week missing or doubled.
for w in $(seq "$START_WEEK" "$END_WEEK"); do
    N=$(grep -c "nevermindd: week $w:" "$LOG" || true)
    [[ "$N" -eq 1 ]] || fail "week $w completed $N times, want exactly 1"
done
echo "chaos-soak: all weeks $START_WEEK-$END_WEEK completed exactly once"

# The storm was real: the pipeline had to back off at least once.
grep -q 'backing off' "$LOG" || fail "no retries logged; fault injection seems inert"
RETRIES=$(grep -c 'backing off' "$LOG" || true)
echo "chaos-soak: pipeline retried $RETRIES times"

# The data plane still serves after the storm.
RANK="$(curl -fsS "$BASE/v1/rank?week=$END_WEEK&n=5")" \
    || fail "/v1/rank errored after the storm"
GOT=$(grep -o '"line":' <<<"$RANK" | wc -l)
[[ "$GOT" -eq 5 ]] || fail "/v1/rank returned $GOT predictions, want 5: $RANK"

# The degradation gauges are exposed.
METRICS="$(curl -fsS "$BASE/metrics")" || fail "/metrics errored after the storm"
for series in nevermind_degraded nevermind_store_snapshot_lag \
    nevermind_store_snapshot_build_failures_total nevermind_http_load_shed_total \
    nevermind_http_timeouts_total nevermind_model_reload_failures_total; do
    grep -q "^$series " <<<"$METRICS" || fail "/metrics is missing $series"
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

echo "chaos-soak: PASS ($MODE)"
