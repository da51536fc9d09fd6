#!/usr/bin/env bash
# Perf regression gate, A/B: builds the root package's test binary from the
# base commit and from the working tree, then runs each gated benchmark
# (compiled scoring, serve score, a desk-sized score lookup, score after
# ingest, WAL ingest, ingest decode, checkpoint write, recovery, replica
# catch-up, drift monitors, shadow score, week-table build, locate) on
# both, BENCH_DIFF_COUNT rounds (default 5), alternating which side runs
# first, and compares each side's medians (benchjson, then benchdiff). The
# two sides of one benchmark run seconds apart, so a host phase that slows
# one slows the other; comparing with the absolute rows committed in
# BENCH_ml.json instead failed the unchanged tree on this host's ±40%
# multi-minute phases and passed real regressions.
#
# The base is HEAD when tracked files have uncommitted changes (the change
# under review is the diff against HEAD), else HEAD~1 (the change under
# review is the last commit). It is extracted with git archive into a temp
# directory, and each binary runs from its own source directory. For an A/A
# run, commit the tree in a scratch clone, add `git commit --allow-empty`,
# and run the script there: HEAD~1's tree is then HEAD's.
#
# Fails on a ns/op regression past BENCH_DIFF_THRESHOLD percent (default 20)
# or an allocs/op regression past the same percentage plus two allocs of
# slack. The margin comes from A/A runs on a two-CPU host (the tree against
# itself): the largest median deltas of three runs were 9.2%, 10.4% and
# 19.7%. A 25% slowdown injected into the ingest decoder read +25.7%,
# +45.2% and +4.3% in three runs: at 5 rounds the gate catches a regression
# of that size only about as often as the host's noise allows.
# The benchmarks run at GOMAXPROCS=1 so that names carry no -N CPU suffix and
# match BENCH_ml.json. Used by `make bench-diff` (part of `make check`; about
# 10 minutes, most of it the fixtures each benchmark process rebuilds).
set -euo pipefail

cd "$(dirname "$0")/.."

GO="${GO:-go}"
MATCH='ScoreCompiled|ServeScore|ServeLookup|ScoreAfterIngest|IngestWAL|IngestDecode|Checkpoint|Recovery|ReplicaCatchup|DriftMonitors|ShadowScore|WeekTableBuild|Locate$'
COUNT="${BENCH_DIFF_COUNT:-5}"
if git diff --quiet HEAD --; then BASE=HEAD~1; else BASE=HEAD; fi
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/base"
git archive "$BASE" | tar -x -C "$WORK/base"
# -trimpath: the two checkouts' paths must not end up in the binaries, or
# the same source would link to different code layouts.
"$GO" test -c -trimpath -o "$WORK/new.test" .
(cd "$WORK/base" && "$GO" test -c -trimpath -o "$WORK/old.test" .)

# run DIR BINARY NAME OUT: one run of benchmark NAME (and its sub-benchmarks),
# appended to OUT.
run() {
	(cd "$1" && GOMAXPROCS=1 "$2" -test.run '^$' -test.bench "^$3\$" -test.benchmem \
		-test.count 1 -test.timeout 30m) >> "$4"
}
mapfile -t names < <("$WORK/new.test" -test.list "$MATCH" | grep '^Benchmark')
echo "bench-diff: base $(git rev-parse --short "$BASE") vs working tree, ${#names[@]} benchmarks, $COUNT alternating rounds each..."
for name in "${names[@]}"; do
	for ((i = 1; i <= COUNT; i++)); do
		if ((i % 2)); then
			run "$WORK/base" "$WORK/old.test" "$name" "$WORK/old.txt"
			run . "$WORK/new.test" "$name" "$WORK/new.txt"
		else
			run . "$WORK/new.test" "$name" "$WORK/new.txt"
			run "$WORK/base" "$WORK/old.test" "$name" "$WORK/old.txt"
		fi
	done
done
"$GO" run ./cmd/benchjson < "$WORK/old.txt" > "$WORK/old.json"
"$GO" run ./cmd/benchjson < "$WORK/new.txt" > "$WORK/new.json"

status=0
"$GO" run ./cmd/benchdiff \
	-old "$WORK/old.json" \
	-new "$WORK/new.json" \
	-match "$MATCH" \
	-threshold "${BENCH_DIFF_THRESHOLD:-20}" || status=$?
echo "bench-diff: ${SECONDS}s wall"
exit "$status"
