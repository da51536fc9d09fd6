#!/usr/bin/env bash
# Perf regression gate: rerun the compiled-scoring, serve-score,
# score-after-ingest, WAL-ingest, ingest-decode, checkpoint-write, recovery,
# replica-catch-up, drift-monitor, shadow-score, week-table-build and
# locate benchmarks best-of-3
# (-count=3; benchjson keeps each benchmark's fastest
# run, since noise only ever adds time), convert with benchjson, and compare
# ns/op and allocs/op against the committed BENCH_ml.json via benchdiff.
# Fails on a >50% regression: shared-host neighbor noise measures as ±40%
# multi-minute phases that best-of-3 cannot escape (the three runs land in
# the same phase), while a real regression in these hot paths is multiples,
# not percents — so the margin sits above the noise and below any
# regression worth failing a build for. The alloc axis additionally
# tolerates two allocs/op of absolute slack so the gate tracks the serving
# path's zero-alloc contract without flaking.
# The benchmarks run at GOMAXPROCS=1, as BENCH_ml.json was recorded: on a
# multi-CPU host `go test` would otherwise suffix every name with -N and the
# gate would find nothing to compare.
# Used by `make bench-diff` (part of `make check`). Override the margin with
# BENCH_DIFF_THRESHOLD and the repeat count with BENCH_DIFF_COUNT.
set -euo pipefail

cd "$(dirname "$0")/.."

GO="${GO:-go}"
MATCH='ScoreCompiled|ServeScore|ScoreAfterIngest|IngestWAL|IngestDecode|Checkpoint|Recovery|ReplicaCatchup|DriftMonitors|ShadowScore|WeekTableBuild|Locate$'
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "bench-diff: running benchmarks matching '$MATCH' (best of ${BENCH_DIFF_COUNT:-3})..."
GOMAXPROCS=1 "$GO" test -run '^$' -bench "$MATCH" -benchmem -count "${BENCH_DIFF_COUNT:-3}" . 2>&1 \
	| tee "$WORK/bench.txt" \
	| "$GO" run ./cmd/benchjson > "$WORK/new.json"

"$GO" run ./cmd/benchdiff \
	-old BENCH_ml.json \
	-new "$WORK/new.json" \
	-match "$MATCH" \
	-threshold "${BENCH_DIFF_THRESHOLD:-50}"
