package eval

import (
	"fmt"
	"io"
	"sort"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/faults"
)

// LocatorResult reproduces §6.3: the trouble-locator evaluation. It contains
// both the headline "tests needed to locate 50% of problems" comparison and
// the Fig. 10 rank-improvement-by-basic-rank-bin curves for the flat and
// combined models.
type LocatorResult struct {
	TrainCases, TestCases int
	Dispositions          int

	// MedianRank per model: the tests needed to locate half the problems.
	MedianRank map[string]int
	// MeanRank per model.
	MeanRank map[string]float64

	// Fig. 10: basic-rank bins and the average rank improvement
	// (basicRank − modelRank) per bin for flat and combined.
	BinLabels       []string
	FlatImprovement []float64
	CombImprovement []float64
	BinCounts       []int
}

// RunLocator trains on dispatches up to mid-September and evaluates on the
// rest of the year (the paper: 7 weeks of training, 7 of test).
func (c *Context) RunLocator() (*LocatorResult, error) {
	splitDay := data.DayOfDate(9, 19)
	train := core.CasesFromNotes(c.DS, data.FirstSaturday, splitDay-1)
	test := core.CasesFromNotes(c.DS, splitDay, data.DayOfDate(11, 6))
	cfg := core.DefaultLocatorConfig(c.Cfg.Seed)
	cfg.Rounds = c.Cfg.LocRounds
	cfg.Workers = c.Cfg.Workers
	loc, err := core.TrainLocator(c.DS, train, cfg)
	if err != nil {
		return nil, err
	}

	res := &LocatorResult{
		TrainCases:   len(train),
		TestCases:    len(test),
		Dispositions: len(loc.Dispositions),
		MedianRank:   map[string]int{},
		MeanRank:     map[string]float64{},
	}

	ranks := map[core.LocatorModel][]int{}
	for _, m := range []core.LocatorModel{core.ModelBasic, core.ModelFlat, core.ModelCombined} {
		r, err := loc.RankOfTruth(c.DS, test, m)
		if err != nil {
			return nil, err
		}
		ranks[m] = r
		var valid []int
		sum := 0
		for _, v := range r {
			if v > 0 {
				valid = append(valid, v)
				sum += v
			}
		}
		if len(valid) == 0 {
			return nil, fmt.Errorf("eval: no rankable test cases for %v", m)
		}
		sort.Ints(valid)
		res.MedianRank[m.String()] = valid[len(valid)/2]
		res.MeanRank[m.String()] = float64(sum) / float64(len(valid))
	}

	// Fig. 10: bin test cases by their basic rank.
	bins := []struct {
		lo, hi int
		label  string
	}{
		{1, 5, "1-5"}, {6, 10, "6-10"}, {11, 15, "11-15"},
		{16, 20, "16-20"}, {21, 1 << 30, "21+"},
	}
	for _, b := range bins {
		var dFlat, dComb float64
		n := 0
		for i := range test {
			rb := ranks[core.ModelBasic][i]
			if rb < b.lo || rb > b.hi || ranks[core.ModelFlat][i] <= 0 {
				continue
			}
			n++
			dFlat += float64(rb - ranks[core.ModelFlat][i])
			dComb += float64(rb - ranks[core.ModelCombined][i])
		}
		res.BinLabels = append(res.BinLabels, b.label)
		res.BinCounts = append(res.BinCounts, n)
		if n > 0 {
			res.FlatImprovement = append(res.FlatImprovement, dFlat/float64(n))
			res.CombImprovement = append(res.CombImprovement, dComb/float64(n))
		} else {
			res.FlatImprovement = append(res.FlatImprovement, 0)
			res.CombImprovement = append(res.CombImprovement, 0)
		}
	}
	return res, nil
}

// Render prints the §6.3 headline and the Fig. 10 table.
func (r *LocatorResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "§6.3 — trouble locator (%d train dispatches, %d test, %d dispositions)\n\n",
		r.TrainCases, r.TestCases, r.Dispositions)
	if err := table(w, []string{"model", "median tests to locate", "mean rank"}, [][]string{
		{"basic", fmt.Sprint(r.MedianRank["basic"]), fmt.Sprintf("%.1f", r.MeanRank["basic"])},
		{"flat", fmt.Sprint(r.MedianRank["flat"]), fmt.Sprintf("%.1f", r.MeanRank["flat"])},
		{"combined", fmt.Sprint(r.MedianRank["combined"]), fmt.Sprintf("%.1f", r.MeanRank["combined"])},
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nFig. 10 — average rank improvement over basic ranks, by basic-rank bin\n\n")
	header := []string{"basic rank", "cases", "flat model", "combined model"}
	var rows [][]string
	for i := range r.BinLabels {
		rows = append(rows, []string{
			r.BinLabels[i], fmt.Sprint(r.BinCounts[i]),
			fmt.Sprintf("%+.1f", r.FlatImprovement[i]),
			fmt.Sprintf("%+.1f", r.CombImprovement[i]),
		})
	}
	return table(w, header, rows)
}

// --- Table 1 / Fig. 2: the disposition mix ----------------------------------

// Table1Result summarises the disposition taxonomy and the observed mix of
// dispositions per major location over one month of dispatches (the paper
// studies August 2009).
type Table1Result struct {
	Month string
	// PerLocation maps location → (disposition name, share-of-location).
	PerLocation map[string][]NamedScore
	// LocationShare maps location → share of all dispatches.
	LocationShare map[string]float64
	Total         int
}

// RunTable1 tallies the August disposition notes.
func (c *Context) RunTable1() (*Table1Result, error) {
	lo, hi := data.DayOfDate(8, 1), data.DayOfDate(8, 31)
	counts := map[faults.DispositionID]int{}
	total := 0
	for _, n := range c.DS.Notes {
		if n.Day < lo || n.Day > hi {
			continue
		}
		counts[faults.DispositionID(n.Disposition)]++
		total++
	}
	if total == 0 {
		return nil, fmt.Errorf("eval: no August dispatches")
	}
	res := &Table1Result{
		Month:         "2009-08",
		PerLocation:   map[string][]NamedScore{},
		LocationShare: map[string]float64{},
		Total:         total,
	}
	for loc := faults.HN; loc < faults.NumLocations; loc++ {
		locTotal := 0
		for _, id := range faults.ByLocation(loc) {
			locTotal += counts[id]
		}
		res.LocationShare[loc.String()] = float64(locTotal) / float64(total)
		var xs []NamedScore
		for _, id := range faults.ByLocation(loc) {
			if counts[id] == 0 {
				continue
			}
			share := 0.0
			if locTotal > 0 {
				share = float64(counts[id]) / float64(locTotal)
			}
			xs = append(xs, NamedScore{faults.Catalog[id].Name, share})
		}
		sort.Slice(xs, func(a, b int) bool { return xs[a].Score > xs[b].Score })
		res.PerLocation[loc.String()] = xs
	}
	return res, nil
}

// Render prints the Table 1 style summary.
func (r *Table1Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Table 1 — dispositions by major location (%s, %d dispatches)\n\n", r.Month, r.Total)
	for _, loc := range []string{"HN", "F1", "DSLAM", "F2"} {
		key := loc
		if loc == "DSLAM" {
			key = "DS"
		}
		xs, ok := r.PerLocation[key]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s (%s of all dispatches):\n", loc, pct(r.LocationShare[key]))
		for i, x := range xs {
			if i >= 6 {
				fmt.Fprintf(w, "  ... and %d more\n", len(xs)-i)
				break
			}
			fmt.Fprintf(w, "  %-42s %s\n", x.Name, pct(x.Score))
		}
		fmt.Fprintln(w)
	}
	return nil
}
