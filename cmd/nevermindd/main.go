// Command nevermindd is the NEVERMIND serving daemon: the long-running
// counterpart to the one-shot nevermind report. It keeps the latest line-test
// history for the population in a sharded in-memory store, serves scoring,
// ranking and trouble-location over a JSON HTTP API, and runs the weekly
// §3.2 pipeline loop — ingest the Saturday tests, rank the population, push
// the budgeted TopN into the ATDS dispatch queue — on a configurable tick.
//
// Models load from files at startup and hot-reload on SIGHUP or
// POST /v1/reload without dropping requests; SIGINT/SIGTERM drain in-flight
// requests before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nevermind/internal/chaos"
	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/drift"
	"nevermind/internal/features"
	"nevermind/internal/fleet"
	"nevermind/internal/ml"
	"nevermind/internal/replica"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
	"nevermind/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		lines     = flag.Int("lines", 20000, "subscriber population to simulate when startup training or the pipeline needs a dataset (ignored with -data)")
		seed      = flag.Uint64("seed", 42, "seed for the simulated year, startup training and pipeline retry jitter")
		dataPath  = flag.String("data", "", "load a dataset written by dslsim instead of simulating (read only when startup training or the pipeline needs one)")
		model     = flag.String("model", "", "load a trained predictor instead of training at startup")
		locator   = flag.String("locator", "", "load a trained trouble locator")
		trainLoc  = flag.Bool("train-locator", false, "train a locator at startup when -locator is unset")
		rounds    = flag.Int("rounds", 120, "boosting rounds when training at startup")
		budget    = flag.Int("budget", 0, "ATDS capacity for predicted tickets (default population/50)")
		workers   = flag.Int("workers", 0, "worker pool size for scoring (0 = all CPUs)")
		shards    = flag.Int("shards", 0, "line-state store shards (0 = GOMAXPROCS, rounded up to a power of two)")
		pipeline  = flag.Bool("pipeline", true, "run the weekly pipeline loop over the simulated feed")
		scenario  = flag.String("scenario", "", "drift scenario pack over the simulated feed: kind[:week=N,weeks=N,frac=F,mag=F,seed=N]; kinds firmware|weather|aging|outage")
		startWeek = flag.Int("start-week", 40, "first week the pipeline ingests and ranks")
		endWeek   = flag.Int("end-week", 51, "last week the pipeline ingests and ranks")
		tick      = flag.Duration("tick", 0, "wall-clock interval per simulated week (0 = back to back)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")

		// Fleet membership: a shard daemon filters ingest to the lines the
		// consistent-hash ring assigns it, so a gateway can fan a feed out
		// over many daemons. Shards normally run with -pipeline=false — the
		// gateway's fleet pipeline orchestrates the weekly loop.
		fleetID       = flag.String("fleet.id", "", "this daemon's shard name in a fleet (enables ring-ownership ingest filtering)")
		fleetPeers    = flag.String("fleet.peers", "", "comma-separated shard names of the whole fleet, including -fleet.id; must match the gateway's list")
		fleetReplicas = flag.Int("fleet.replicas", 0, "consistent-hash virtual nodes per shard (0 = default; must match the gateway)")

		// Durability: with -wal.dir set, every ingest batch is logged before
		// it is acked and the store checkpoints periodically; at startup the
		// daemon recovers newest-checkpoint + WAL-tail to the exact state a
		// never-restarted process would hold. Unset (the default) keeps the
		// store purely in-memory, byte-identical to the pre-WAL daemon.
		// Replication: -replica.of turns this daemon into a read-only
		// follower of another nevermindd. It bootstraps from the leader's
		// newest checkpoint, then tails the leader's WAL stream, so its
		// store is bit-identical to the leader's at every version. A leader
		// running with -wal.dir automatically serves the replication
		// endpoints under /v1/repl/.
		replicaOf   = flag.String("replica.of", "", "leader base URL to replicate from (turns this daemon into a read-only follower)")
		replicaPoll = flag.Duration("replica.poll", 2*time.Second, "long-poll wait per replication stream request")
		replicaID   = flag.String("replica.id", "", "follower id for the leader's WAL retention tracking (default host-pid)")
		replRetain  = flag.Duration("repl.retention", 5*time.Minute, "leader: how long a silent follower keeps pinning WAL segments")

		walDir       = flag.String("wal.dir", "", "write-ahead log + checkpoint directory (empty = no durability)")
		walFsync     = flag.String("wal.fsync", "interval", "WAL fsync policy: always (no acked batch lost), interval, never")
		walFsyncIvl  = flag.Duration("wal.fsync-interval", 50*time.Millisecond, "background fsync period under -wal.fsync=interval")
		walSegBytes  = flag.Int64("wal.segment-bytes", 64<<20, "WAL segment rotation size")
		ckptEvery    = flag.Int64("checkpoint.every", 256, "checkpoint once the store is this many versions past the last one (<0 disables)")
		ckptInterval = flag.Duration("checkpoint.interval", 5*time.Minute, "also checkpoint on this timer when versions moved (0 disables)")
		ckptKeep     = flag.Int("checkpoint.keep", 2, "checkpoint files to retain (the WAL is truncated only past the oldest)")

		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (profiling is opt-in)")
		reqTimeout  = flag.Duration("timeout", 30*time.Second, "per-request deadline on the API (0 disables)")
		maxInflight = flag.Int("max-inflight", 512, "load-shed threshold: concurrent API requests before 503 + Retry-After (0 disables)")

		retryAttempts = flag.Int("retry.attempts", 6, "pipeline per-week attempt budget for pull/ingest/snapshot")
		retryBase     = flag.Duration("retry.base", 50*time.Millisecond, "pipeline first backoff; doubles per retry with jitter")
		retryMax      = flag.Duration("retry.max", 2*time.Second, "pipeline backoff ceiling")

		chaosSeed      = flag.Uint64("chaos.seed", 1, "fault-injection seed (schedules replay bit-identically)")
		chaosSource    = flag.Float64("chaos.source-error", 0, "P(feed pull fails transiently)")
		chaosPartial   = flag.Float64("chaos.partial-batch", 0, "P(feed delivers a truncated batch with a transport error)")
		chaosMalformed = flag.Float64("chaos.malformed-batch", 0, "P(feed silently delivers corrupt records)")
		chaosIngest    = flag.Float64("chaos.ingest-error", 0, "P(store ingest fails transiently)")
		chaosSnapshot  = flag.Float64("chaos.snapshot-error", 0, "P(snapshot rebuild fails; last good snapshot keeps serving)")
		chaosReload    = flag.Float64("chaos.reload-error", 0, "P(model reload probe fails; old generation keeps serving)")
		chaosSlowShard = flag.Float64("chaos.slow-shard", 0, "P(a shard read stalls during snapshot builds)")
		chaosShardLag  = flag.Duration("chaos.shard-delay", 20*time.Millisecond, "max injected per-shard stall")
		chaosSlowReq   = flag.Float64("chaos.slow-request", 0, "P(an API request stalls in the handler)")
		chaosReqLag    = flag.Duration("chaos.request-delay", 50*time.Millisecond, "max injected per-request stall")
		chaosRetrain   = flag.Float64("chaos.retrain-error", 0, "P(a drift-loop retrain attempt fails; retried next tick)")

		driftOn         = flag.Bool("drift", false, "run the drift monitors + champion/challenger retraining loop in the pipeline tick")
		driftThresholds = flag.String("drift.thresholds", "", "drift monitor thresholds: ap-floor=F,gap-ceil=F,psi-ceil=F,k=N,w=N,min-gain=F,baseline-weeks=N,bins=N (empty = defaults)")
		driftTrain      = flag.Int("drift.train-weeks", 8, "matured weeks a challenger trains on")
	)
	flag.Parse()

	if *startWeek < 1 || *endWeek >= data.Weeks || *startWeek > *endWeek {
		fatalStage("config", fmt.Errorf("pipeline weeks [%d,%d] outside [1,%d)", *startWeek, *endWeek, data.Weeks))
	}
	if *replicaOf != "" {
		if *walDir != "" {
			fatalStage("config", fmt.Errorf("-replica.of and -wal.dir are mutually exclusive: a follower's durability is the leader's"))
		}
		if *pipeline {
			// A follower's store is written only by the replication apply
			// loop; the weekly loop belongs to the leader (or the gateway).
			fmt.Fprintln(os.Stderr, "nevermindd: replica mode; pipeline disabled")
			*pipeline = false
		}
	}

	var ds *data.Dataset
	if needsDataset(*model, *locator, *trainLoc, *pipeline) {
		var err error
		if ds, err = loadOrSimulate(*dataPath, *lines, *seed); err != nil {
			fatalStage("dataset", err)
		}
	}

	pred, err := loadOrTrainPredictor(ds, *model, *startWeek, *rounds, *budget, *workers, *seed)
	if err != nil {
		fatalStage("predictor", err)
	}

	var loc *core.TroubleLocator
	switch {
	case *locator != "":
		fmt.Fprintf(os.Stderr, "nevermindd: loading locator %s...\n", *locator)
		if loc, err = core.LoadLocator(*locator); err != nil {
			fatalStage("locator", err)
		}
	case *trainLoc:
		cases := core.CasesFromNotes(ds, data.FirstSaturday, data.SaturdayOf(*startWeek)-1)
		lcfg := core.DefaultLocatorConfig(*seed)
		lcfg.Workers = *workers
		fmt.Fprintf(os.Stderr, "nevermindd: training trouble locator on %d dispatches...\n", len(cases))
		if loc, err = core.TrainLocator(ds, cases, lcfg); err != nil {
			fatalStage("locator", err)
		}
	}

	// Any non-zero chaos rate arms the fault-injection layer; its faults are
	// exactly what the retry/degradation machinery is built to absorb, so a
	// chaotic daemon must still serve every healthy request.
	var inj *chaos.Injector
	var faults *serve.FaultHooks
	if *chaosSource+*chaosPartial+*chaosMalformed+*chaosIngest+*chaosSnapshot+
		*chaosReload+*chaosSlowShard+*chaosSlowReq+*chaosRetrain > 0 {
		inj = chaos.New(chaos.Config{
			Seed:           *chaosSeed,
			SourceError:    *chaosSource,
			PartialBatch:   *chaosPartial,
			MalformedBatch: *chaosMalformed,
			IngestError:    *chaosIngest,
			SnapshotError:  *chaosSnapshot,
			ReloadError:    *chaosReload,
			SlowShard:      *chaosSlowShard,
			ShardDelay:     *chaosShardLag,
			SlowRequest:    *chaosSlowReq,
			RequestDelay:   *chaosReqLag,
			RetrainError:   *chaosRetrain,
		})
		faults = inj.Hooks()
		fmt.Fprintf(os.Stderr, "nevermindd: CHAOS armed (seed %d)\n", *chaosSeed)
	}

	// In replica mode the status closure late-binds the follower: it is
	// built after the server (it needs srv.SwapStore), but always before the
	// listener opens, so no request observes a nil follower.
	var fol *replica.Follower
	scfg := serve.Config{
		Predictor:      pred,
		Locator:        loc,
		PredictorPath:  *model,
		LocatorPath:    *locator,
		Shards:         *shards,
		DrainTimeout:   *drain,
		RequestTimeout: *reqTimeout,
		MaxInflight:    *maxInflight,
		EnablePprof:    *pprofOn,
		Faults:         faults,
	}
	if *replicaOf != "" {
		scfg.ReadOnly = true
		scfg.ReplicaStatus = func() serve.ReplicaStatus {
			if fol == nil {
				return serve.ReplicaStatus{}
			}
			return fol.Status()
		}
	}
	srv, err := serve.New(scfg)
	if err != nil {
		fatalStage("server", err)
	}
	// Compiled-scorer timings flow into this server's /metrics. The hook is
	// process-global (see ml.SetScoreObserver), so only the daemon — which
	// owns exactly one server — installs it.
	ml.SetScoreObserver(srv.ScoreObserver())

	if *fleetID != "" || *fleetPeers != "" {
		var names []string
		for _, n := range strings.Split(*fleetPeers, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		ring, err := fleet.NewRing(names, *fleetReplicas)
		if err != nil {
			fatalStage("fleet", err)
		}
		owns, err := ring.Owns(*fleetID)
		if err != nil {
			fatalStage("fleet", err)
		}
		srv.Store().SetOwner(owns)
		fmt.Fprintf(os.Stderr, "nevermindd: fleet shard %q of %d; ingest filtered to ring-owned lines\n",
			*fleetID, ring.NumShards())
	}

	// Durability comes after fleet ownership is installed (replayed records
	// were logged post-filter, so recovery needs no filtering, but live
	// ingest after recovery does) and before the listener opens, so no
	// request ever sees a half-recovered store.
	var dur *serve.Durability
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			fatalStage("wal", err)
		}
		dur, err = serve.OpenDurability(srv.Store(), srv.Registry(), serve.DurabilityConfig{
			Dir:                *walDir,
			Sync:               policy,
			SyncEvery:          *walFsyncIvl,
			SegmentBytes:       *walSegBytes,
			CheckpointEvery:    *ckptEvery,
			CheckpointInterval: *ckptInterval,
			KeepCheckpoints:    *ckptKeep,
		})
		if err != nil {
			fatalStage("wal", err)
		}
		rec := dur.Recovery()
		fmt.Fprintf(os.Stderr,
			"nevermindd: recovered to version %d in %v (checkpoint %d + %d replayed records; %d bytes truncated, %d segments dropped, %d checkpoints skipped)\n",
			rec.Version, rec.Duration.Round(time.Millisecond), rec.CheckpointVersion,
			rec.ReplayedRecords, rec.TruncatedBytes, rec.DroppedSegments, rec.SkippedCheckpoints)

		// A durable daemon is a replication leader: serve its checkpoints and
		// WAL under /v1/repl/, wake blocked follower streams on every append,
		// and hold WAL truncation back for active followers.
		src, err := replica.NewSource(replica.SourceConfig{
			Dir:          dur.Dir(),
			LastVersion:  dur.LogVersion,
			RetentionTTL: *replRetain,
			Reg:          srv.Registry(),
		})
		if err != nil {
			fatalStage("replica", err)
		}
		dur.SetOnAppend(src.Wake)
		dur.SetRetention(src.Retain)
		srv.MountReplication(src.Handler())
		fmt.Fprintf(os.Stderr, "nevermindd: replication source mounted at /v1/repl/ (log tail %d)\n", dur.LogVersion())
	}

	// Replica bootstrap happens synchronously before the listener opens:
	// once the daemon accepts a request, its store is a complete leader state
	// at some version, never a partial one.
	if *replicaOf != "" {
		fol, err = replica.NewFollower(replica.FollowerConfig{
			Leader:    *replicaOf,
			ID:        *replicaID,
			Shards:    *shards,
			SwapStore: srv.SwapStore,
			PollWait:  *replicaPoll,
			Reg:       srv.Registry(),
		})
		if err != nil {
			fatalStage("replica", err)
		}
		t0 := time.Now()
		if err := fol.Bootstrap(context.Background()); err != nil {
			fatalStage("replica", err)
		}
		// The smoke test parses this line for the bootstrap version.
		fmt.Fprintf(os.Stderr, "nevermindd: replica bootstrapped to version %d from %s in %v\n",
			fol.Status().Applied, *replicaOf, time.Since(t0).Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalStage("listen", err)
	}
	// The smoke test parses this line for the actual port.
	fmt.Fprintf(os.Stderr, "nevermindd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if fol != nil {
		go func() {
			if err := fol.Run(ctx); ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "nevermindd: replica: %v\n", err)
			}
		}()
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			res, err := srv.Reload()
			if err != nil {
				fmt.Fprintf(os.Stderr, "nevermindd: reload: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "nevermindd: reloaded models (probe=%d identical=%v schema=%s)\n",
				res.ProbeExamples, res.Identical, res.SchemaFingerprint)
		}
	}()

	if *pipeline {
		src, err := sim.NewSource(ds, *startWeek, *endWeek)
		if err != nil {
			fatalStage("pipeline", err)
		}
		feed := serve.SimFeed(src)
		if *scenario != "" {
			sc, err := sim.ParseScenario(*scenario)
			if err != nil {
				fatalStage("scenario", err)
			}
			ss, err := sim.NewScenarioSource(src, sc)
			if err != nil {
				fatalStage("scenario", err)
			}
			feed = ss
			// The drift smoke test parses this line.
			fmt.Fprintf(os.Stderr, "nevermindd: scenario armed: %s\n", sc)
		}
		if inj != nil {
			feed = inj.WrapSource(feed)
		}

		// The drift loop rides the pipeline tick: monitors observe each
		// freshly ingested week, and retraining/promotion runs between
		// ticks, never on the request path.
		var ctrl *drift.Controller
		if *driftOn {
			th, err := drift.ParseThresholds(*driftThresholds)
			if err != nil {
				fatalStage("drift", err)
			}
			dcfg := drift.Config{
				Server:     srv,
				Thresholds: th,
				TrainWeeks: *driftTrain,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "nevermindd: "+format+"\n", args...)
				},
			}
			if inj != nil {
				dcfg.Hooks = inj.DriftHooks()
			}
			if ctrl, err = drift.New(dcfg); err != nil {
				fatalStage("drift", err)
			}
			ctrl.BindMetrics(srv.Registry())
			srv.MountDrift(ctrl.Handler())
			srv.SetDriftStatus(ctrl.ServeStatus)
			fmt.Fprintf(os.Stderr, "nevermindd: drift loop armed (%s; train-weeks=%d)\n", th, *driftTrain)
		}
		pl, err := serve.NewPipeline(srv, serve.PipelineConfig{
			Source: feed,
			Tick:   *tick,
			Retry: serve.RetryConfig{
				MaxAttempts: *retryAttempts,
				BaseDelay:   *retryBase,
				MaxDelay:    *retryMax,
				Seed:        *seed,
			},
			OnSnapshot: func(sn *serve.Snapshot, week int) {
				if ctrl != nil {
					ctrl.ObserveWeek(sn, week)
				}
			},
			OnWeek: func(r serve.WeekReport) {
				fmt.Fprintf(os.Stderr,
					"nevermindd: week %d: ingested %d tests %d tickets; submitted %d predictions; worked %d customer + %d predicted (%d expired, %d pending, %d retries)\n",
					r.Week, r.IngestedTests, r.IngestedTickets, r.Submitted,
					r.Stats.Customer, r.Stats.Predicted, r.Stats.ExpiredPredicted, r.Pending, r.Retries)
			},
			OnRetry: func(e serve.RetryEvent) {
				fmt.Fprintf(os.Stderr, "nevermindd: week %d %s attempt %d failed (%v); backing off %v\n",
					e.Week, e.Op, e.Attempt, e.Err, e.Backoff)
			},
		})
		if err != nil {
			fatalStage("pipeline", err)
		}
		go func() {
			if err := pl.Run(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "nevermindd: pipeline: %v\n", err)
				return
			}
			if ctx.Err() == nil {
				t := pl.Totals()
				fmt.Fprintf(os.Stderr,
					"nevermindd: pipeline done: %d customer + %d predicted worked, %d predicted within 7 days, %d expired\n",
					t.Customer, t.Predicted, t.WorkedWithinBudgetHorizon, t.ExpiredPredicted)
			}
		}()
	}

	if err := srv.Serve(ctx, ln); err != nil {
		fatalStage("serve", err)
	}
	if dur != nil {
		// Final checkpoint + clean log close: the next start recovers from
		// the checkpoint alone, no replay.
		if err := dur.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "nevermindd: wal close: %v\n", err)
		}
	}
	fmt.Fprintln(os.Stderr, "nevermindd: drained, exiting")
}

// needsDataset reports whether any of the dataset's three readers is active:
// predictor training (no -model), locator training (-train-locator without
// -locator) and the pipeline's simulated feed. A daemon that loads its models
// and takes its data over /v1/ingest (every fleet shard and replica) skips
// simulating a year nothing would read.
func needsDataset(model, locator string, trainLocator, pipeline bool) bool {
	return model == "" || (locator == "" && trainLocator) || pipeline
}

func loadOrSimulate(path string, lines int, seed uint64) (*data.Dataset, error) {
	if path != "" {
		fmt.Fprintf(os.Stderr, "nevermindd: loading dataset %s...\n", path)
		return data.Load(path)
	}
	fmt.Fprintf(os.Stderr, "nevermindd: simulating %d lines for one year...\n", lines)
	res, err := sim.Run(sim.DefaultConfig(lines, seed))
	if err != nil {
		return nil, err
	}
	return res.Dataset, nil
}

// loadOrTrainPredictor loads the model file when given one, otherwise trains
// on the weeks preceding the pipeline's start week with the same 4-week label
// gap the nevermind command uses.
func loadOrTrainPredictor(ds *data.Dataset, path string, startWeek, rounds, budget, workers int, seed uint64) (*core.TicketPredictor, error) {
	if path != "" {
		fmt.Fprintf(os.Stderr, "nevermindd: loading predictor %s...\n", path)
		pred, err := core.LoadPredictor(path)
		if err != nil {
			return nil, err
		}
		pred.Cfg.Workers = workers
		if budget > 0 {
			pred.Cfg.BudgetN = budget
		}
		return pred, nil
	}
	hi := startWeek - 5
	lo := hi - 8
	if lo < 1 {
		return nil, fmt.Errorf("start week %d leaves no room for training; use a later week or -model", startWeek)
	}
	cfg := core.DefaultPredictorConfig(ds.NumLines, seed)
	cfg.Rounds = rounds
	cfg.Workers = workers
	if budget > 0 {
		cfg.BudgetN = budget
	}
	fmt.Fprintf(os.Stderr, "nevermindd: training ticket predictor on weeks %d-%d (%d lines)...\n", lo, hi, ds.NumLines)
	t0 := time.Now()
	pred, err := core.TrainPredictor(ds, features.WeekRange(lo, hi), cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "nevermindd: trained in %v; model uses %d features + %d products\n",
		time.Since(t0).Round(time.Millisecond), len(pred.SelectedCols), len(pred.ProductPairs))
	return pred, nil
}

// fatalStage exits naming the startup stage that failed, so a dead daemon's
// last log line says whether loading, training, or serving broke.
func fatalStage(stage string, err error) {
	fmt.Fprintf(os.Stderr, "nevermindd: %s: %v\n", stage, err)
	os.Exit(1)
}
