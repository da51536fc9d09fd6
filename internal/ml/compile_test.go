package ml

import (
	"math"
	"testing"

	"nevermind/internal/rng"
)

// compiledTolerance is the acceptance bound for compiled-vs-reference score
// agreement: the fold only reassociates the ensemble-order sum, so the
// residual is pure floating-point noise.
const compiledTolerance = 1e-9

// randomBins builds a matrix of random uint8 bins. Feature 0 is left
// all-zero (an "empty-bin" feature: only bin 0 ever occurs), so tables must
// stay correct for bins the data never visits.
func randomBins(r *rng.RNG, nFeatures, n, maxBin int) *BinnedMatrix {
	bm := &BinnedMatrix{N: n, Bins: make([][]uint8, nFeatures)}
	for f := 0; f < nFeatures; f++ {
		row := make([]uint8, n)
		if f > 0 {
			for i := range row {
				row[i] = uint8(r.Intn(maxBin))
			}
		}
		bm.Bins[f] = row
	}
	return bm
}

// randomEnsemble builds stumps with random features (including repeats of
// the same feature at different cuts) and ~15% constant stumps.
func randomEnsemble(r *rng.RNG, nFeatures, rounds int) *BStump {
	m := &BStump{}
	for t := 0; t < rounds; t++ {
		if r.Bool(0.15) {
			s := r.Uniform(-1, 1)
			m.Stumps = append(m.Stumps, Stump{Feature: -1, Cut: 255, SLow: s, SHigh: s})
			continue
		}
		m.Stumps = append(m.Stumps, Stump{
			Feature: r.Intn(nFeatures),
			Cut:     uint8(r.Intn(256)),
			SLow:    r.Uniform(-1, 1),
			SHigh:   r.Uniform(-1, 1),
		})
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestCompiledMatchesReferenceOnRandomEnsembles is the property-style
// equivalence check: random ensembles (constant stumps, repeated features
// with different cuts, an all-zero-bin feature) score identically through
// the compiled tables and the stump-major reference, at several worker
// counts.
func TestCompiledMatchesReferenceOnRandomEnsembles(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 25; trial++ {
		nFeatures := 1 + r.Intn(12)
		rounds := 1 + r.Intn(300)
		bm := randomBins(r, nFeatures, 200+r.Intn(800), 256)
		m := randomEnsemble(r, nFeatures, rounds)
		ref := m.ScoreAllWorkers(bm, 1)
		c := m.Compiled()
		for _, workers := range workerCounts() {
			got := c.ScoreAllWorkers(bm, workers)
			if d := maxAbsDiff(ref, got); d > compiledTolerance {
				t.Fatalf("trial %d workers %d: compiled diverges from reference by %g", trial, workers, d)
			}
		}
		for i := 0; i < bm.N; i += 97 {
			if d := math.Abs(c.Score(bm, i) - ref[i]); d > compiledTolerance {
				t.Fatalf("trial %d: Score(%d) off by %g", trial, i, d)
			}
		}
	}
}

// TestCompiledSingleFeatureAndConstantEnsembles pins the degenerate shapes:
// a single-feature ensemble uses exactly one table, and an all-constant
// ensemble folds entirely into Bias with no tables at all.
func TestCompiledSingleFeatureAndConstantEnsembles(t *testing.T) {
	r := rng.New(11)
	bm := randomBins(r, 3, 500, 256)

	single := &BStump{Stumps: []Stump{
		{Feature: 1, Cut: 10, SLow: -0.5, SHigh: 0.25},
		{Feature: 1, Cut: 200, SLow: 0.125, SHigh: -1},
		{Feature: 1, Cut: 10, SLow: 0.0625, SHigh: 0.5},
	}}
	c := single.Compiled()
	if len(c.Features) != 1 || c.Features[0] != 1 {
		t.Fatalf("single-feature ensemble compiled to features %v", c.Features)
	}
	if d := maxAbsDiff(single.ScoreAllWorkers(bm, 1), c.ScoreAll(bm)); d > compiledTolerance {
		t.Fatalf("single-feature compiled off by %g", d)
	}

	constant := &BStump{Stumps: []Stump{
		{Feature: -1, Cut: 255, SLow: 0.5, SHigh: 0.5},
		{Feature: -1, Cut: 255, SLow: -0.125, SHigh: -0.125},
	}}
	cc := constant.Compiled()
	if len(cc.Features) != 0 {
		t.Fatalf("all-constant ensemble compiled to features %v", cc.Features)
	}
	if cc.Bias != 0.375 {
		t.Fatalf("all-constant bias = %v, want 0.375", cc.Bias)
	}
	if d := maxAbsDiff(constant.ScoreAllWorkers(bm, 1), cc.ScoreAll(bm)); d > compiledTolerance {
		t.Fatalf("all-constant compiled off by %g", d)
	}
}

// TestCompiledTrainedEnsembleEquivalence runs the fold on a genuinely
// trained model and checks the table invariants (ascending, deduplicated
// features) alongside score agreement.
func TestCompiledTrainedEnsembleEquivalence(t *testing.T) {
	cols, y := synthProblem(4000, 23)
	q, err := FitQuantizer(cols, 32)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := q.Transform(cols)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainBStump(bm, q, y, TrainOptions{Rounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compiled()
	if c.CompiledAt != len(m.Stumps) {
		t.Fatalf("CompiledAt = %d, want %d", c.CompiledAt, len(m.Stumps))
	}
	for k := 1; k < len(c.Features); k++ {
		if c.Features[k] <= c.Features[k-1] {
			t.Fatalf("Features not strictly ascending: %v", c.Features)
		}
	}
	ref := m.ScoreAllWorkers(bm, 1)
	if d := maxAbsDiff(ref, c.ScoreAll(bm)); d > compiledTolerance {
		t.Fatalf("trained compiled off by %g", d)
	}
}

// TestCompiledIdenticalAcrossWorkers: the compiled pass chunks examples, and
// each example's accumulation order is fixed, so output must be
// bit-identical (not merely within tolerance) at any worker count.
func TestCompiledIdenticalAcrossWorkers(t *testing.T) {
	r := rng.New(31)
	bm := randomBins(r, 8, 3000, 256)
	c := randomEnsemble(r, 8, 150).Compiled()
	want := c.ScoreAllWorkers(bm, 1)
	for _, workers := range workerCounts() {
		got := c.ScoreAllWorkers(bm, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: score[%d] = %v, want bit-identical %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestCompiledStalenessDetected is the guard for the CompiledAt contract:
// mutating the ensemble after a fold must invalidate the cached tables, and
// the next Compiled() call must re-fold over the full ensemble.
func TestCompiledStalenessDetected(t *testing.T) {
	bm := &BinnedMatrix{N: 1, Bins: [][]uint8{{0}}}
	m := &BStump{Stumps: []Stump{{Feature: 0, Cut: 5, SLow: 1, SHigh: -1}}}
	c1 := m.Compiled()
	if c1.StaleFor(len(m.Stumps)) {
		t.Fatal("fresh fold reported stale")
	}
	if got := c1.ScoreAll(bm)[0]; got != 1 {
		t.Fatalf("pre-mutation score = %v, want 1", got)
	}

	m.Stumps = append(m.Stumps, Stump{Feature: -1, Cut: 255, SLow: 0.5, SHigh: 0.5})
	if !c1.StaleFor(len(m.Stumps)) {
		t.Fatal("mutated ensemble not reported stale")
	}
	c2 := m.Compiled()
	if c2 == c1 {
		t.Fatal("Compiled() returned the stale fold after mutation")
	}
	if c2.CompiledAt != 2 {
		t.Fatalf("re-fold CompiledAt = %d, want 2", c2.CompiledAt)
	}
	if got := c2.ScoreAll(bm)[0]; got != 1.5 {
		t.Fatalf("post-mutation score = %v, want 1.5", got)
	}
}
