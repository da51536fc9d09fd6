package ml

import (
	"sort"
	"time"

	"nevermind/internal/parallel"
)

// Compiled inference: a trained ensemble folded into per-(feature, bin)
// score lookup tables — the LightGBM-style leaf-table trick. A boosted-stump
// score f(x) = Σ_t g_t(x) is a sum of per-feature step functions, so every
// stump on feature f can be pre-summed into a table of f's possible bins
// (uint8, at most maxStumpBins entries). Batch scoring then costs one table
// lookup per *used feature* per example, independent of the round count T —
// at T = 200+ rounds over a few dozen features this is several times faster
// than the stump-major reference pass (see BenchmarkScoreCompiled).
//
// Determinism contract (what "the same model" means after folding):
//
//   - each feature's per-bin contribution accumulates over the ensemble in
//     training order (stump t before stump t+1);
//   - constant stumps (Feature == -1) fold into a single Bias term, in
//     training order;
//   - an example's score sums Bias first, then the feature groups in
//     ascending feature order.
//
// The construction is therefore a pure function of the ensemble, identical
// at any worker count, and bit-identical run to run. The folded sum
// reassociates the reference ensemble-order sum, so compiled and reference
// scores agree to floating-point error (≤ 1e-9; enforced by the Compiled*
// equivalence tests), not bit-for-bit.

// CompiledScorer is a BStump ensemble folded into per-bin score tables.
type CompiledScorer struct {
	// Bias is the summed output of every constant (Feature == -1) stump.
	Bias float64
	// Features lists the real features the ensemble consults, ascending.
	Features []int
	// Tables[k][b] is the total contribution of feature Features[k] when an
	// example's bin is b, accumulated over the ensemble in training order.
	// Every table has maxStumpBins entries so a uint8 bin can never miss.
	Tables [][]float64
	// CompiledAt is the ensemble length the tables were folded from. The
	// scorer is stale for an ensemble of any other length (see StaleFor);
	// BStump.Compiled uses it to re-fold after ensemble mutation.
	CompiledAt int
}

// CompileBStump folds the ensemble into per-bin tables. The model is not
// retained; use BStump.Compiled for the cached, staleness-checked accessor.
func CompileBStump(m *BStump) *CompiledScorer {
	c := &CompiledScorer{CompiledAt: len(m.Stumps)}
	tabs := map[int][]float64{}
	for _, st := range m.Stumps {
		if st.Feature < 0 {
			c.Bias += st.SLow // constant stump: SLow == SHigh
			continue
		}
		tab := tabs[st.Feature]
		if tab == nil {
			tab = make([]float64, maxStumpBins)
			tabs[st.Feature] = tab
		}
		cut := int(st.Cut)
		for b := 0; b <= cut; b++ {
			tab[b] += st.SLow
		}
		for b := cut + 1; b < maxStumpBins; b++ {
			tab[b] += st.SHigh
		}
	}
	c.Features = make([]int, 0, len(tabs))
	for f := range tabs {
		c.Features = append(c.Features, f)
	}
	sort.Ints(c.Features)
	c.Tables = make([][]float64, len(c.Features))
	for k, f := range c.Features {
		c.Tables[k] = tabs[f]
	}
	return c
}

// StaleFor reports whether the tables were folded from an ensemble of a
// different length than rounds (the cheap mutation signal: boosting only
// ever appends weak learners).
func (c *CompiledScorer) StaleFor(rounds int) bool {
	return c == nil || c.CompiledAt != rounds
}

// Score returns the compiled score of example i.
func (c *CompiledScorer) Score(bm *BinnedMatrix, i int) float64 {
	s := c.Bias
	for k, f := range c.Features {
		s += c.Tables[k][bm.Bins[f][i]]
	}
	return s
}

// ScoreAll scores every example with the default worker count.
func (c *CompiledScorer) ScoreAll(bm *BinnedMatrix) []float64 {
	return c.ScoreAllWorkers(bm, 0)
}

// ScoreAllWorkers scores every example on the given number of workers
// (0 = GOMAXPROCS, 1 = sequential), feature-major within each example chunk.
// Per example the accumulation order is fixed (Bias, then ascending
// features), so the output is bit-identical at any worker count.
func (c *CompiledScorer) ScoreAllWorkers(bm *BinnedMatrix, workers int) []float64 {
	if scoreObserver.Load() != nil {
		defer observeScore(bm.N, time.Now())
	}
	out := make([]float64, bm.N)
	parallel.For(bm.N, workers, func(_, start, end int) {
		if c.Bias != 0 {
			for i := start; i < end; i++ {
				out[i] = c.Bias
			}
		}
		for k, f := range c.Features {
			tab := c.Tables[k][:maxStumpBins] // len hint: uint8 index can't miss
			bins := bm.Bins[f]
			for i := start; i < end; i++ {
				out[i] += tab[bins[i]]
			}
		}
	})
	return out
}

// Compiled returns the ensemble folded into per-bin tables, compiling on
// first use and re-folding whenever the ensemble length changed since the
// last fold. Safe for concurrent scorers; the field is never serialised, so
// a gob-loaded model simply re-folds on first use.
func (m *BStump) Compiled() *CompiledScorer {
	if c := m.compiled.Load(); !c.StaleFor(len(m.Stumps)) {
		return c
	}
	c := CompileBStump(m)
	m.compiled.Store(c)
	return c
}
