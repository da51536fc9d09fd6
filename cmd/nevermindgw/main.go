// Command nevermindgw is the NEVERMIND fleet gateway: the scale-out front
// door for a consistent-hash sharded nevermindd fleet. It owns the ring that
// assigns every DSL line to a shard, routes the per-line API (/v1/ingest,
// /v1/score, /v1/locate) to the owning daemon, and answers /v1/rank by
// scatter-gathering the per-shard top-N exports through a streaming k-way
// merge — no shard's full population is ever materialized at the gateway.
//
// A 1-shard gateway answers byte-for-byte as a bare nevermindd would; its
// own /healthz and /metrics are fleet-shaped (per-shard up/lag gauges, the
// degraded count) and sit outside that contract. With -pipeline it also runs
// the weekly §3.2 loop fleet-wide: each simulated week is ring-partitioned
// and ingested by all shards in parallel, ranked fleet-wide, and dispatched
// into a local ATDS queue exactly as the single daemon does.
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
	"nevermind/internal/data"
	"nevermind/internal/fleet"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

// shardFlags collects repeated -shard name=url flags in order; the order
// fixes shard indexing (error relay picks the lowest failing index) but not
// ownership — the ring hashes names, so any permutation of the same list
// yields the same line placement.
type shardFlags []fleet.ShardSpec

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sp := range *s {
		parts[i] = sp.Name + "=" + sp.URL
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*s = append(*s, fleet.ShardSpec{Name: name, URL: url})
	return nil
}

// replicaFlags collects repeated -replica shard=url flags: each names a
// read replica (a nevermindd running -replica.of against that shard's
// leader). Order within a shard fixes the replica index only.
type replicaFlags []struct{ shard, url string }

func (r *replicaFlags) String() string {
	parts := make([]string, len(*r))
	for i, e := range *r {
		parts[i] = e.shard + "=" + e.url
	}
	return strings.Join(parts, ",")
}

func (r *replicaFlags) Set(v string) error {
	shard, url, ok := strings.Cut(v, "=")
	if !ok || shard == "" || url == "" {
		return fmt.Errorf("want shard=url, got %q", v)
	}
	*r = append(*r, struct{ shard, url string }{shard, url})
	return nil
}

func main() {
	var shards shardFlags
	flag.Var(&shards, "shard", "fleet member as name=url (repeat once per shard)")
	var shardReplicas replicaFlags
	flag.Var(&shardReplicas, "replica", "read replica as shard=url (repeatable; reads prefer fresh replicas, ingest stays on leaders)")
	var (
		addr     = flag.String("addr", "127.0.0.1:8090", "listen address (port 0 picks a free port)")
		replicas = flag.Int("replicas", 0, "consistent-hash virtual nodes per shard (0 = default; must match the shards' -fleet.replicas)")
		maxLag   = flag.Uint64("max-replica-lag", 0, "ingest versions a replica may trail before reads skip it (0 = default)")
		probe    = flag.Duration("probe", time.Second, "shard health-probe interval")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		seed     = flag.Uint64("seed", 42, "simulation seed; also drives retry-backoff jitter")

		retryAttempts = flag.Int("retry.attempts", 6, "per-shard-request attempt budget for transient failures")
		retryBase     = flag.Duration("retry.base", 50*time.Millisecond, "first shard-retry backoff; doubles per retry with jitter")
		retryMax      = flag.Duration("retry.max", 2*time.Second, "shard-retry backoff ceiling")

		pipeline  = flag.Bool("pipeline", false, "run the weekly fleet pipeline over the simulated feed")
		lines     = flag.Int("lines", 20000, "subscriber population to simulate for the feed (ignored with -data)")
		dataPath  = flag.String("data", "", "feed from a dataset written by dslsim instead of simulating")
		startWeek = flag.Int("start-week", 40, "first week the pipeline ingests and ranks")
		endWeek   = flag.Int("end-week", 51, "last week the pipeline ingests and ranks")
		tick      = flag.Duration("tick", 0, "wall-clock interval per simulated week (0 = back to back)")

		chaosSeed      = flag.Uint64("chaos.seed", 1, "fault-injection seed (schedules replay bit-identically)")
		chaosKill      = flag.Float64("chaos.shard-kill", 0, "P(a shard request finds the shard unreachable)")
		chaosSource    = flag.Float64("chaos.source-error", 0, "P(feed pull fails transiently)")
		chaosPartial   = flag.Float64("chaos.partial-batch", 0, "P(feed delivers a truncated batch with a transport error)")
		chaosMalformed = flag.Float64("chaos.malformed-batch", 0, "P(feed silently delivers corrupt records)")
	)
	flag.Parse()

	if len(shards) == 0 {
		fatalStage("config", fmt.Errorf("no shards; pass -shard name=url at least once"))
	}
	for _, e := range shardReplicas {
		found := false
		for i := range shards {
			if shards[i].Name == e.shard {
				shards[i].Replicas = append(shards[i].Replicas, e.url)
				found = true
				break
			}
		}
		if !found {
			fatalStage("config", fmt.Errorf("-replica %s=%s names an unknown shard", e.shard, e.url))
		}
	}

	var inj *chaos.Injector
	var hooks *fleet.FaultHooks
	if *chaosKill+*chaosSource+*chaosPartial+*chaosMalformed > 0 {
		inj = chaos.New(chaos.Config{
			Seed:           *chaosSeed,
			ShardKill:      *chaosKill,
			SourceError:    *chaosSource,
			PartialBatch:   *chaosPartial,
			MalformedBatch: *chaosMalformed,
		})
		hooks = inj.FleetHooks()
		fmt.Fprintf(os.Stderr, "nevermindgw: CHAOS armed (seed %d)\n", *chaosSeed)
	}

	// Shard calls and the pipeline's weekly operations back off alike.
	retry := serve.RetryConfig{
		MaxAttempts: *retryAttempts,
		BaseDelay:   *retryBase,
		MaxDelay:    *retryMax,
		Seed:        *seed,
	}
	gw, err := fleet.NewGateway(fleet.Config{
		Shards:        shards,
		Replicas:      *replicas,
		MaxReplicaLag: *maxLag,
		Retry:         retry,
		ProbeInterval: *probe,
		DrainTimeout:  *drain,
		Hooks:         hooks,
	})
	if err != nil {
		fatalStage("gateway", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalStage("listen", err)
	}
	// The smoke test parses this line for the actual port.
	fmt.Fprintf(os.Stderr, "nevermindgw: listening on %s (%d shards)\n", ln.Addr(), len(shards))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pipeline {
		if *startWeek < 1 || *endWeek >= data.Weeks || *startWeek > *endWeek {
			fatalStage("config", fmt.Errorf("pipeline weeks [%d,%d] outside [1,%d)", *startWeek, *endWeek, data.Weeks))
		}
		ds, err := loadOrSimulate(*dataPath, *lines, *seed)
		if err != nil {
			fatalStage("dataset", err)
		}
		src, err := sim.NewSource(ds, *startWeek, *endWeek)
		if err != nil {
			fatalStage("pipeline", err)
		}
		feed := serve.SimFeed(src)
		if inj != nil {
			feed = inj.WrapSource(feed)
		}
		pl, err := fleet.NewPipeline(gw, serve.PipelineConfig{
			Source: feed,
			Tick:   *tick,
			Retry:  retry,
			OnWeek: func(r serve.WeekReport) {
				fmt.Fprintf(os.Stderr,
					"nevermindgw: week %d: ingested %d tests %d tickets; submitted %d predictions; worked %d customer + %d predicted (%d expired, %d pending, %d retries)\n",
					r.Week, r.IngestedTests, r.IngestedTickets, r.Submitted,
					r.Stats.Customer, r.Stats.Predicted, r.Stats.ExpiredPredicted, r.Pending, r.Retries)
			},
			OnRetry: func(e serve.RetryEvent) {
				fmt.Fprintf(os.Stderr, "nevermindgw: week %d %s attempt %d failed (%v); backing off %v\n",
					e.Week, e.Op, e.Attempt, e.Err, e.Backoff)
			},
		})
		if err != nil {
			fatalStage("pipeline", err)
		}
		go func() {
			if err := pl.Run(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "nevermindgw: pipeline: %v\n", err)
				return
			}
			if ctx.Err() == nil {
				t := pl.Totals()
				fmt.Fprintf(os.Stderr,
					"nevermindgw: pipeline done: %d customer + %d predicted worked, %d predicted within 7 days, %d expired\n",
					t.Customer, t.Predicted, t.WorkedWithinBudgetHorizon, t.ExpiredPredicted)
			}
		}()
	}

	if err := gw.Serve(ctx, ln); err != nil {
		fatalStage("serve", err)
	}
	fmt.Fprintln(os.Stderr, "nevermindgw: drained, exiting")
}

func loadOrSimulate(path string, lines int, seed uint64) (*data.Dataset, error) {
	if path != "" {
		fmt.Fprintf(os.Stderr, "nevermindgw: loading dataset %s...\n", path)
		return data.Load(path)
	}
	fmt.Fprintf(os.Stderr, "nevermindgw: simulating %d lines for one year...\n", lines)
	res, err := sim.Run(sim.DefaultConfig(lines, seed))
	if err != nil {
		return nil, err
	}
	return res.Dataset, nil
}

// fatalStage exits naming the startup stage that failed.
func fatalStage(stage string, err error) {
	fmt.Fprintf(os.Stderr, "nevermindgw: %s: %v\n", stage, err)
	os.Exit(1)
}
