// Command benchjson converts `go test -bench` text output on stdin into a
// JSON document on stdout, so benchmark numbers can be committed and diffed
// (`make bench-json` writes BENCH_ml.json).
//
// It parses the standard benchmark line format:
//
//	BenchmarkName/sub=1-8   	     123	  456789 ns/op	  1024 B/op	   12 allocs/op	   3.00 custom-metric
//
// plus the goos/goarch/pkg/cpu header lines. Non-benchmark lines are ignored,
// so piping the full `go test` output (including PASS/ok trailers) is fine.
//
// Repeated lines for the same benchmark (`-count=N`) collapse to the run
// with the median ns/op (the lower middle one of an even count), carrying
// the median allocs/op and B/op: the A/B gate (`make bench-diff`) compares
// two sides measured in the same host phases, where the middle of each side
// is the robust summary and the fastest run only measures the quietest
// moment.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

func main() {
	rep := report{Benchmarks: []result{}}
	var names []string // in first-seen order
	runs := map[string][]result{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if r, ok := parseLine(line); ok {
				if runs[r.Name] == nil {
					names = append(names, r.Name)
				}
				runs[r.Name] = append(runs[r.Name], r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for _, name := range names {
		rep.Benchmarks = append(rep.Benchmarks, medianOf(runs[name]))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// medianOf returns the run with the median ns/op of rs, carrying the median
// B/op and allocs/op.
func medianOf(rs []result) result {
	mid := (len(rs) - 1) / 2
	at := func(key func(result) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = key(r)
		}
		slices.Sort(vs)
		return vs[mid]
	}
	sorted := slices.Clone(rs)
	slices.SortStableFunc(sorted, func(a, b result) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
	m := sorted[mid]
	m.BytesPerOp = at(func(r result) float64 { return r.BytesPerOp })
	m.AllocsOp = at(func(r result) float64 { return r.AllocsOp })
	return m
}
