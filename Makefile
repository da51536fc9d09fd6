# NEVERMIND reproduction — standard workflows.

GO ?= go

.PHONY: all check fmt build vet test test-repeat race bench bench-json bench-diff bench-smoke serve-smoke fleet-smoke restart-smoke replica-smoke chaos-smoke chaos-soak drift-smoke experiments experiments-golden examples fuzz fuzz-smoke clean

all: build vet test

# The full gate: formatting, compile, static checks, tests (plus a
# repeat-count pass over the serving subsystem to catch leaked
# process-global state), the race detector over the parallel hot paths, a
# one-iteration pass over every benchmark so the bench code itself cannot
# rot, the perf-regression diff against the committed baseline, end-to-end
# smokes of the daemon, of the sharded fleet, and of a kill -9/restart over
# the write-ahead log, a short fuzz pass over the API decoders, the chaos
# smoke (daemon under injected faults), the drift smoke (the
# monitor/retrain/promote loop end to end over HTTP), and the training
# golden at two worker counts.
check: fmt build vet test test-repeat race bench-smoke bench-diff serve-smoke fleet-smoke restart-smoke replica-smoke fuzz-smoke chaos-smoke drift-smoke experiments-golden

# Format gate: fail when gofmt would change any tracked Go file. It only
# lists files, never rewrites them; run `gofmt -w` on what it prints.
fmt:
	@files="$$(git ls-files '*.go')" && [ -n "$$files" ] || { echo "fmt: no tracked Go files"; exit 1; }; \
	out="$$(gofmt -l $$files)"; \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Run the serving tests twice in one binary: any state a test leaks into a
# process-global (the ml score-observer hook, registry bindings, caches)
# poisons the second pass. -count=2 also defeats test result caching.
test-repeat:
	$(GO) test -count=2 ./internal/serve/

# Race-detect the worker-pool paths: the parallel package itself plus the
# cross-worker determinism and compiled-scoring tests in the packages that
# share state across goroutines, and the serving subsystem whose store is
# hammered by concurrent ingest and score requests.
race:
	$(GO) test -race ./internal/parallel/ ./internal/ml/ ./internal/obs/
	$(GO) test -race -run 'AcrossWorkers|Compiled' ./internal/core/
	$(GO) test -race -timeout 30m ./internal/serve/ ./internal/chaos/ ./internal/replica/ ./internal/drift/

# One benchmark per paper table/figure plus ablations; writes the artifacts
# the repository documents.
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Machine-readable numbers for the ML and serving hot paths (reference vs
# compiled scoring, training, transform, the serve endpoint at a whole
# population and at the one- and 48-line sizes a desk sends, scoring after a
# feed re-ingest, the base-less vs base-derived snapshot publish, the store's
# heap per line, the fleet gateway's scatter-gather score/rank paths, the
# /v1/ingest body decoder, the durability axis: ingest with the WAL off vs
# on, one checkpoint write, and cold-restart recovery, the replication
# axis: follower catch-up over HTTP plus gateway scoring through a replica,
# the drift loop: the per-week monitor fold plus one week of challenger
# shadow scoring, and the serving layers perfbench times end to end: a
# week table built from scratch behind /v1/rank and a one-case /v1/locate);
# BENCH_ml.json is committed so perf diffs show up in review. GOMAXPROCS=1
# keeps benchmark names free of the -N CPU suffix bench-diff matches on.
bench-json:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'ScoreAllWorkers|ScoreCompiled|CompileBStump|TrainBStump|Transform|FeatureScores|ServeScore|ServeLookup|ScoreAfterIngest|Snapshot|StoreFootprint|FleetScore|FleetRank|IngestWAL|IngestDecode|Checkpoint|Recovery|ReplicaCatchup|GatewayScoreReplicas|DriftMonitors|ShadowScore|WeekTableBuild|Locate$$' -benchmem . 2>&1 | tee bench_output.txt | $(GO) run ./cmd/benchjson > BENCH_ml.json

# Perf gate, A/B: run the compiled-scoring, serve-score, ingest-decode and
# score-after-ingest benchmarks (among others; see the script) from the base
# commit's and the working tree's test binaries, alternating, and fail when
# the tree's median regresses past the margin on ns/op, or on allocs/op past
# the same margin plus two allocs of slack.
bench-diff:
	./scripts/bench_diff.sh

# One iteration of every benchmark — a compile-and-run smoke gate, not a
# measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# End-to-end smoke of the nevermindd daemon: boot it on a random port,
# ingest a batch over HTTP, assert /healthz and /v1/rank answer, and shut
# it down cleanly.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the sharded fleet: a gateway over two nevermindd
# shards, fed the same batch as a bare single daemon, must answer /v1/rank
# and /v1/score identically (modulo the summed version clock) and drain
# cleanly on SIGTERM. A second phase runs `nevermindgw -pipeline` over one
# shard beside a bare daemon's pipeline; their week lines must match.
fleet-smoke:
	./scripts/fleet_smoke.sh

# Durability smoke: a daemon with the WAL on is SIGKILLed mid-week and
# restarted over the same directory; it must recover every acked batch
# (-wal.fsync=always) and answer /v1/rank and /v1/score byte-identically to
# a never-killed reference, and `nevermindwal verify` must prove the
# directory recovers offline.
restart-smoke:
	./scripts/restart_smoke.sh

# Replication smoke: a leader, a -replica.of follower, and a gateway routing
# reads to the replica over real HTTP. The replica bootstraps mid-stream and
# answers byte-identically to the leader; SIGKILLing it must leave gateway
# reads answering via the leader, and a restart must converge again.
replica-smoke:
	./scripts/replica_smoke.sh

# Chaos smoke: the daemon boots with every fault mode armed and must ride
# the storm out — weeks complete exactly once, /healthz never fails, and
# SIGTERM still drains. (The in-process equivalent, TestChaosSoak, runs in
# plain `make test`.)
chaos-smoke:
	./scripts/chaos_soak.sh --smoke

# Drift smoke: the daemon boots with a firmware drift scenario and the
# drift loop armed; the monitors must trip on the scenario, retrain and
# shadow-score a challenger, and surface the loop over /v1/drift,
# /healthz and /metrics. (The in-process equivalent, TestDriftSoak, runs
# in plain `make test`.)
drift-smoke:
	./scripts/drift_smoke.sh

# Full chaos soak: the long-mode Go soak (five fault seeds over the whole
# simulated year, convergence to a clean replay asserted bit for bit)
# plus a 12-week daemon-level storm.
chaos-soak:
	./scripts/chaos_soak.sh

# Regenerate every table and figure at full scale (~2 min on one core).
experiments:
	$(GO) run ./cmd/experiments -exp all

# Training golden: every paper artifact at a reduced scale (about 40 s at
# one worker), diffed byte for byte against the committed output at one
# worker and at two, so a change that claims to leave training alone proves
# it. A change that moves it regenerates the file with the same command and
# names its cause in CHANGES.md.
experiments-golden:
	@for w in 1 2; do \
		$(GO) run ./cmd/experiments -exp all -lines 4000 -rounds 60 -locrounds 30 -workers $$w 2>/dev/null \
			| diff -u docs/experiments-output-4k-seed42.txt - \
			|| { echo "experiments-golden: -workers $$w differs from docs/experiments-output-4k-seed42.txt"; exit 1; }; \
	done

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/troubleshoot
	$(GO) run ./examples/outagewatch
	$(GO) run ./examples/capacity
	$(GO) run ./examples/weeklyloop

# Short fuzzing pass over the CSV importers.
fuzz:
	$(GO) test ./internal/data/ -fuzz FuzzReadMeasurementsCSV -fuzztime 20s
	$(GO) test ./internal/data/ -fuzz FuzzReadTicketsCSV -fuzztime 20s

# Fuzz the serving API's decoders — the ingest body decoder, differentially
# (the hand decoder against encoding/json: same verdict, error text and
# float bits) and end to end into a store, its one-pass float conversion
# against strconv.ParseFloat bit for bit, the score body decoder,
# differentially (same verdict, error text, values and nil-versus-empty),
# and the rank query parser — plus the checkpoint loader, the WAL segment
# decoder, the replication stream decoder (arbitrary bytes must decode
# consistently and never panic or corrupt a store), the drift loop's two
# parsers: /v1/drift query params and the -drift.thresholds spec, the
# interval scorer against the binned path (the same score bits for any
# float32 values), and the chunked measurement grid's grow, copy-on-write
# writes and frozen copies against a dense model. Seed corpora for all
# twelve also run (instantly) in plain `make test`.
fuzz-smoke:
	$(GO) test ./internal/serve/ -fuzz FuzzIngestJSON -fuzztime 30s -run '^$$'
	$(GO) test ./internal/serve/ -fuzz FuzzIngestDecode -fuzztime 30s -run '^$$'
	$(GO) test ./internal/serve/ -fuzz FuzzFloat32Token -fuzztime 20s -run '^$$'
	$(GO) test ./internal/serve/ -fuzz FuzzScoreDecode -fuzztime 20s -run '^$$'
	$(GO) test ./internal/serve/ -fuzz FuzzRankParams -fuzztime 30s -run '^$$'
	$(GO) test ./internal/serve/ -fuzz FuzzCheckpointDecode -fuzztime 20s -run '^$$'
	$(GO) test ./internal/wal/ -fuzz FuzzWALDecode -fuzztime 20s -run '^$$'
	$(GO) test ./internal/replica/ -fuzz FuzzReplStream -fuzztime 20s -run '^$$'
	$(GO) test ./internal/drift/ -fuzz FuzzDriftParams -fuzztime 20s -run '^$$'
	$(GO) test ./internal/drift/ -fuzz FuzzThresholds -fuzztime 20s -run '^$$'
	$(GO) test ./internal/ml/ -fuzz FuzzThresholdScore -fuzztime 20s -run '^$$'
	$(GO) test ./internal/data/ -fuzz FuzzGridCOW -fuzztime 20s -run '^$$'

clean:
	rm -f test_output.txt bench_output.txt dsl-year.gob.gz
