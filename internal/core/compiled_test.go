package core

import (
	"math"
	"testing"

	"nevermind/internal/data"
	"nevermind/internal/features"
)

// TestCompiledScoringMatchesReferenceInRanking is the acceptance-criteria
// check at the predictor level: Rank and ScoreExamples go through the
// compiled per-bin tables, and on every ranked example the compiled score
// must agree with the reference stump-major pass to <= 1e-9.
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
	bm, err := loc.casesMatrix(res.Dataset, nil, test)
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

// TestPredictorEncodeCacheIdenticalRanking attaches a cache and ranks the
// same week twice: the second pass must hit the binned-matrix entry and both
// passes must equal the uncached ranking exactly.
func TestPredictorEncodeCacheIdenticalRanking(t *testing.T) {
	res, pred := fixture(t)
	week := 41
	base, err := pred.TopN(res.Dataset, week)
	if err != nil {
		t.Fatal(err)
	}

	cache := features.NewCache(8)
	pred.SetEncodeCache(cache)
	defer pred.SetEncodeCache(nil)
	first, err := pred.TopN(res.Dataset, week)
	if err != nil {
		t.Fatal(err)
	}
	_, missesBefore := cache.Stats()
	second, err := pred.TopN(res.Dataset, week)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if hits == 0 {
		t.Fatal("second ranking did not hit the cache")
	}
	if misses != missesBefore {
		t.Fatalf("second ranking missed the cache (%d -> %d misses)", missesBefore, misses)
	}
	for i := range base {
		if first[i] != base[i] || second[i] != base[i] {
			t.Fatalf("cached ranking diverged at position %d: %+v / %+v vs %+v", i, first[i], second[i], base[i])
		}
	}
}
