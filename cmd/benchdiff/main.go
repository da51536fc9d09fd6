// Command benchdiff compares two benchjson reports (see cmd/benchjson) and
// exits nonzero when any matched benchmark regressed beyond the threshold —
// the perf gate `make bench-diff` runs on the medians of a base commit's and
// the working tree's alternating runs (scripts/bench_diff.sh).
// Two axes gate independently: ns/op (throughput) and allocs/op (the
// zero-alloc serving contract). An allocation regression must clear both the
// percentage threshold and an absolute slack (default 2 allocs/op), so a
// 0->1 blip never fails the gate but a pooled path quietly growing a
// per-request allocation does.
//
//	benchdiff -old BENCH_ml.json -new fresh.json -match 'ScoreCompiled|ServeScore' -threshold 25
//
// Only benchmarks present in both reports are compared (a renamed or new
// benchmark is reported but never fails the gate); matching zero benchmarks
// fails it, because a gate that compares nothing silently stopped gating.
// Allocs compare only when the baseline recorded them (reports predating
// -benchmem capture carry none).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
)

type result struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
}

type report struct {
	Benchmarks []result `json:"benchmarks"`
}

func load(path string) (map[string]result, []string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := make(map[string]result, len(rep.Benchmarks))
	var order []string
	for _, b := range rep.Benchmarks {
		if b.NsPerOp > 0 {
			byName[b.Name] = b
			order = append(order, b.Name)
		}
	}
	return byName, order, nil
}

func main() {
	var (
		oldPath    = flag.String("old", "BENCH_ml.json", "baseline benchjson report")
		newPath    = flag.String("new", "", "fresh benchjson report to judge")
		match      = flag.String("match", ".", "regexp selecting which benchmarks gate")
		threshold  = flag.Float64("threshold", 25, "max tolerated regression, percent (ns/op and allocs/op)")
		allocSlack = flag.Float64("alloc-slack", 2, "absolute allocs/op growth always tolerated")
	)
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	oldRes, _, err := load(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRes, newOrder, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	compared, regressed := 0, 0
	for _, name := range newOrder {
		if !re.MatchString(name) {
			continue
		}
		cur := newRes[name]
		base, ok := oldRes[name]
		if !ok {
			fmt.Printf("NEW      %-46s %12.0f ns/op (no baseline)\n", name, cur.NsPerOp)
			continue
		}
		compared++
		delta := (cur.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
		verdict := "ok"
		if delta > *threshold {
			verdict = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-8s %-46s %12.0f -> %12.0f ns/op  %+6.1f%%\n", verdict, name, base.NsPerOp, cur.NsPerOp, delta)
		// Allocation gate: only when the baseline recorded allocs, and only
		// past both the relative threshold and the absolute slack.
		if base.AllocsOp > 0 && cur.AllocsOp > base.AllocsOp+*allocSlack &&
			(cur.AllocsOp-base.AllocsOp)/base.AllocsOp*100 > *threshold {
			regressed++
			fmt.Printf("%-8s %-46s %12.1f -> %12.1f allocs/op\n", "REGRESSED", name, base.AllocsOp, cur.AllocsOp)
		}
	}
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no benchmark matched %q in both reports — the gate compared nothing\n", *match)
		os.Exit(1)
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d of %d benchmarks regressed more than %.0f%%\n",
			regressed, compared, *threshold)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d benchmarks within %.0f%% of baseline\n", compared, *threshold)
}
