// Command experiments regenerates the tables and figures of the paper's
// evaluation (§5, §6.3) on the simulated substrate.
//
// Usage:
//
//	experiments [-lines N] [-seed S] [-rounds R] [-exp name]
//
// where name is one of: fig4, fig6, fig7, fig8, table5, notonsite, locator
// (the §6.3 headline plus Fig. 10), deploy (the deployment counterfactual
// extension), table1, trend, or all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nevermind/internal/eval"
)

func main() {
	var (
		lines   = flag.Int("lines", 20000, "subscriber population to simulate")
		seed    = flag.Uint64("seed", 42, "simulation and pipeline seed")
		rounds  = flag.Int("rounds", 250, "predictor boosting rounds (paper: 800)")
		locR    = flag.Int("locrounds", 80, "locator boosting rounds (paper: 200)")
		exp     = flag.String("exp", "all", "experiment to run: fig4|fig6|fig7|fig8|fig9|table5|notonsite|locator|deploy|atds|table1|trend|all")
		work    = flag.Int("workers", 0, "worker pool size for the pipelines (0 = all CPUs, 1 = sequential; results identical)")
		noCache = flag.Bool("nocache", false, "disable the cross-experiment encode/bin cache (results identical, just slower)")
	)
	flag.Parse()

	cfg := eval.Config{Lines: *lines, Seed: *seed, Rounds: *rounds, LocRounds: *locR, Workers: *work, DisableCache: *noCache}
	start := time.Now()
	ctx, err := eval.NewContext(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "simulated %d lines, %d tickets, %d dispatches in %v\n\n",
		ctx.DS.NumLines, len(ctx.DS.Tickets), len(ctx.DS.Notes), time.Since(start).Round(time.Millisecond))

	type renderer interface{ Render(io.Writer) error }
	runners := []struct {
		name string
		run  func() (renderer, error)
	}{
		{"trend", func() (renderer, error) { return ctx.RunTrend() }},
		{"table1", func() (renderer, error) { return ctx.RunTable1() }},
		{"fig4", func() (renderer, error) { return ctx.RunFig4() }},
		{"fig6", func() (renderer, error) { return ctx.RunFig6() }},
		{"fig7", func() (renderer, error) { return ctx.RunFig7() }},
		{"fig8", func() (renderer, error) { return ctx.RunFig8() }},
		{"fig9", func() (renderer, error) { return ctx.RunFig9() }},
		{"table5", func() (renderer, error) { return ctx.RunTable5() }},
		{"notonsite", func() (renderer, error) { return ctx.RunNotOnSite() }},
		{"locator", func() (renderer, error) { return ctx.RunLocator() }},
		{"deploy", func() (renderer, error) { return ctx.RunDeployment() }},
		{"atds", func() (renderer, error) { return ctx.RunATDS() }},
	}

	ran := 0
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran++
		t0 := time.Now()
		res, err := r.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.name, err))
		}
		fmt.Printf("==== %s ====\n\n", r.name)
		if err := res.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[%s in %v]\n", r.name, time.Since(t0).Round(time.Millisecond))
		fmt.Println()
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if ctx.Cache != nil {
		hits, misses := ctx.Cache.Stats()
		fmt.Fprintf(os.Stderr, "[encode cache: %d hits, %d misses, %d entries]\n", hits, misses, ctx.Cache.Len())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
