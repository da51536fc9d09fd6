// Command perfbench is NEVERMIND's socket-level benchmark. It starts the
// real nevermindd and nevermindgw processes on loopback ports, drives them
// from this single process over at most two connections, checks every
// answer it samples against an in-process reference server, and prints
// one JSON line of metrics. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh -workload desk -seed 1 -seconds 15 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		root     = flag.String("root", ".", "repository root; scratch files go under its .bench_build/")
		workload = flag.String("workload", "", "desk | desk_feed | tick")
		seed     = flag.Uint64("seed", 1, "workload seed: every input derives from it")
		seconds  = flag.Int("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run, printing the per-layer metrics")
	)
	flag.Parse()
	// The generator's threads: never more than the host's two CPUs.
	runtime.GOMAXPROCS(maxConns)

	procs := &procSet{}
	ctx, stop := interruptible(procs)
	out, err := run(ctx, procs, *root, *workload, *seed, *seconds, *trace == 1)
	procs.killAll()
	interrupted := ctx.Err() != nil
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		os.Exit(130)
	}
	for _, l := range out.report {
		fmt.Println(l)
	}
	line, err := json.Marshal(out.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.correct {
		os.Exit(1)
	}
}

// interruptible returns a context that SIGINT or SIGTERM cancels; the
// signal also kills every child process at once, and none starts after it.
func interruptible(procs *procSet) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		procs.killAll()
	}()
	return ctx, stop
}

// outcome is one run's verdict and figures.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	report    []string // human-readable lines printed before the JSON line
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // no sample: JSON has no NaN, and the layer did no work
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) logf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and says why.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.logf("FAIL: "+format, args...)
}

func (o *outcome) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct, o.attempted, o.failed, o.metrics}
}

// reportMetrics logs every metric, sorted by name, as "name value unit".
func (o *outcome) reportMetrics() {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o.logf("  %-32s %14.4f %s", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
}

func run(ctx context.Context, procs *procSet, root, workload string, seed uint64, seconds int, trace bool) (*outcome, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		workload: workload,
		daemon:   filepath.Join(build, "bin", "nevermindd"),
		gateway:  filepath.Join(build, "bin", "nevermindgw"),
		seed:     seed,
		seconds:  seconds,
		procs:    procs,
		hc:       &http.Client{Timeout: 2 * time.Minute},
	}
	for _, bin := range []string{e.daemon, e.gateway} {
		if _, err := os.Stat(bin); err != nil {
			return nil, fmt.Errorf("missing server binary (build with perfbench/run.sh): %w", err)
		}
	}
	if err := os.MkdirAll(filepath.Join(build, "runs"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(build, "runs"), workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e.work = work
	if e.models, err = ensureModels(filepath.Join(build, "inputs"), seed); err != nil {
		return nil, err
	}
	traceDir := filepath.Join(build, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	switch workload {
	case "desk", "desk_feed":
		return runDesk(ctx, e, workload == "desk_feed", trace, traceDir)
	case "tick":
		return runTick(ctx, e, trace)
	}
	return nil, fmt.Errorf("unknown -workload %q (want desk, desk_feed or tick)", workload)
}
