package core

import (
	"fmt"
	"math"
	"testing"

	"nevermind/internal/data"
	"nevermind/internal/features"
	"nevermind/internal/ml"
)

// TestCompiledScoringMatchesReferenceInRanking is the acceptance-criteria
// check at the predictor level: Rank and ScoreExamples go through the
// compiled tables (folded into the encode plan's interval tables), and on
// every ranked example the compiled score must agree with the reference
// stump-major pass to <= 1e-9.
func TestCompiledScoringMatchesReferenceInRanking(t *testing.T) {
	res, pred := fixture(t)
	week := 40
	examples := features.ExamplesForWeeks(res.Dataset, []int{week})
	ix := data.NewTicketIndex(res.Dataset)
	bm, err := pred.encodeFor(res.Dataset, ix, examples)
	if err != nil {
		t.Fatal(err)
	}
	ref := pred.Model.ScoreAllWorkers(bm, 1)

	got, err := pred.ScoreExamples(res.Dataset, examples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if d := math.Abs(got[i] - ref[i]); d > 1e-9 {
			t.Fatalf("example %d: compiled score off reference by %g", i, d)
		}
	}

	byLine := map[data.LineID]float64{}
	for i, s := range ref {
		byLine[examples[i].Line] = s
	}
	ranked, err := pred.Rank(res.Dataset, week)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != len(examples) {
		t.Fatalf("Rank returned %d lines, want %d", len(ranked), len(examples))
	}
	for _, p := range ranked {
		if d := math.Abs(p.Score - byLine[p.Line]); d > 1e-9 {
			t.Fatalf("line %d: ranked score off reference by %g", p.Line, d)
		}
	}
}

// TestCompiledLocatorMatchesReferencePosteriors re-derives one disposition's
// posterior from the reference scoring path and checks the compiled
// Posteriors output against it.
func TestCompiledLocatorMatchesReferencePosteriors(t *testing.T) {
	res, loc, test := locatorFixture(t)
	if len(test) > 300 {
		test = test[:300]
	}
	post, err := loc.Posteriors(res.Dataset, test, ModelFlat)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := loc.casesMatrix(res.Dataset, nil, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, d := range loc.Dispositions {
		m := loc.flat[d]
		ref := m.ScoreAllWorkers(bm, 1)
		for i := range test {
			want := m.Probability(ref[i])
			if diff := math.Abs(post[i][j] - want); diff > 1e-9 {
				t.Fatalf("case %d disposition %d: posterior off by %g", i, d, diff)
			}
		}
	}
}

// TestPlanMatchesCompiledBinnedAcrossWorkers pins the encode plan to the
// binned path bit for bit: with no cache attached ScoreExamplesIx encodes
// only the columns the stumps read and scores their intervals, and must
// give exactly encodeFor plus the per-bin tables, at any worker count, for
// single-week batches (with the fallback supplied or computed) and for
// mixed-week ones (whose fallback averages the batch's weeks).
func TestPlanMatchesCompiledBinnedAcrossWorkers(t *testing.T) {
	res, pred := fixture(t)
	ds := res.Dataset
	ix := data.NewTicketIndex(ds)
	single := features.ExamplesForWeeks(ds, []int{40})
	var mixed []features.Example
	for l := 0; l < ds.NumLines; l += 7 {
		mixed = append(mixed, features.Example{Line: data.LineID(l), Week: []int{0, 2, 27, 40, 51}[l%5]})
	}
	defer func(w int) { pred.Cfg.Workers = w }(pred.Cfg.Workers)
	for _, exs := range [][]features.Example{single, mixed} {
		bm, err := pred.encodeFor(ds, ix, exs)
		if err != nil {
			t.Fatal(err)
		}
		want := pred.Model.Compiled().ScoreAllWorkers(bm, 1)
		for _, workers := range []int{1, 2, 4} {
			pred.Cfg.Workers = workers
			got, err := pred.ScoreExamplesIx(ds, ix, exs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("workers %d example %+v: plan %v, binned %v", workers, exs[i], got[i], want[i])
				}
			}
		}
		if len(exs) == len(single) {
			got, err := pred.ScoreExamplesFallback(ds, ix, exs, features.WeekFallback(ds, 40))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("supplied fallback, example %+v: plan %v, binned %v", exs[i], got[i], want[i])
				}
			}
		}
	}
	if pred.plan.Load() == nil {
		t.Fatal("cache-free scoring built no plan")
	}
}

// TestPlanFollowsCompiledRefold grows a copy of the model by two stumps —
// one on a feature the plan already reads, one on a feature it does not —
// and checks the plan is rebuilt with the re-folded Compiled() tables and
// still matches the binned path bit for bit.
func TestPlanFollowsCompiledRefold(t *testing.T) {
	res, pred := fixture(t)
	ds := res.Dataset
	m := &ml.BStump{Stumps: append([]ml.Stump(nil), pred.Model.Stumps...), Names: pred.Model.Names, Calib: pred.Model.Calib}
	p := &TicketPredictor{Cfg: pred.Cfg, Model: m, Quant: pred.Quant, SelectedCols: pred.SelectedCols, ProductPairs: pred.ProductPairs}
	exs := features.ExamplesForWeeks(ds, []int{41})
	if _, err := p.ScoreExamples(ds, exs); err != nil {
		t.Fatal(err)
	}
	before := p.plan.Load()
	read := map[int]bool{}
	for _, f := range before.scorer.Features {
		read[f] = true
	}
	unread := -1
	for f := range p.Quant.Cuts {
		if !read[f] && len(p.Quant.Cuts[f]) > 1 {
			unread = f
			break
		}
	}
	if unread < 0 {
		t.Skip("the model reads every splittable column")
	}
	m.Stumps = append(m.Stumps,
		ml.Stump{Feature: before.scorer.Features[0], Cut: 0, SLow: 0.25, SHigh: -0.5},
		ml.Stump{Feature: unread, Cut: uint8(len(p.Quant.Cuts[unread]) / 2), SLow: -0.125, SHigh: 0.75})
	got, err := p.ScoreExamples(ds, exs)
	if err != nil {
		t.Fatal(err)
	}
	if p.plan.Load() == before {
		t.Fatal("plan not rebuilt after the model re-folded")
	}
	bm, err := p.encodeFor(ds, data.NewTicketIndex(ds), exs)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Compiled().ScoreAllWorkers(bm, 1)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("example %+v: refolded plan %v, binned %v", exs[i], got[i], want[i])
		}
	}
}

// encodeFor is the binned oracle the plan tests compare against: it encodes
// every column of the predictor's schema through features.Encode, crosses
// the product pairs and quantizes the result with the trained cuts, as
// training did.
func (p *TicketPredictor) encodeFor(ds *data.Dataset, ix *data.TicketIndex, examples []features.Example) (*ml.BinnedMatrix, error) {
	enc, err := features.Encode(ds, ix, examples, features.Config{
		HistoryWeeks: p.Cfg.HistoryWeeks, Quadratic: p.Cfg.UseDerived,
	})
	if err != nil {
		return nil, err
	}
	var keep []int
	for _, name := range p.SelectedCols {
		i := enc.ColumnIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("core: schema drift: column %q missing", name)
		}
		keep = append(keep, i)
	}
	finalEnc, err := enc.Subset(keep)
	if err != nil {
		return nil, err
	}
	if len(p.ProductPairs) > 0 {
		var pairs []features.Pair
		for _, pp := range p.ProductPairs {
			a, b := enc.ColumnIndex(pp[0]), enc.ColumnIndex(pp[1])
			if a < 0 || b < 0 {
				return nil, fmt.Errorf("core: schema drift: product pair %v missing", pp)
			}
			pairs = append(pairs, features.Pair{A: a, B: b})
		}
		prodCols, err := features.ProductColumns(enc, pairs)
		if err != nil {
			return nil, err
		}
		if err := finalEnc.AppendColumns(prodCols, features.GroupProd); err != nil {
			return nil, err
		}
	}
	return p.Quant.TransformWorkers(finalEnc.Cols, p.Cfg.Workers)
}
