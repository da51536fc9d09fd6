package ml

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"nevermind/internal/parallel"
)

// Stump is one weak learner: a one-level decision tree on a quantized
// feature. An example with bin(feature) <= Cut scores SLow, otherwise SHigh
// — the S−/S+ confidence-rated outputs of the paper's Fig. 5. In the raw
// feature space the low side is value < Threshold. Feature -1
// marks a constant stump (SLow == SHigh, no feature consulted), emitted for
// unsplittable tree partitions.
type Stump struct {
	Feature int
	Cut     uint8
	SLow    float64
	SHigh   float64
	// Threshold is the original-space cut value, for interpretability: a
	// value v scores SLow exactly when v < Threshold (so v == Threshold
	// scores SHigh).
	Threshold float32
}

// BStump is a boosted ensemble of decision stumps — the paper's classifier,
// after the BoosTexter implementation of Schapire & Singer's confidence-rated
// AdaBoost. The model stays linear in per-feature indicator functions, which
// the paper argues resists the mislabelled-negative noise of unreported
// problems.
type BStump struct {
	Stumps []Stump
	Names  []string // feature names, for Explain
	Calib  Calibration

	// compiled caches the per-bin table fold of this ensemble (see
	// compile.go). Unexported, so gob persistence skips it and loaded
	// models re-fold lazily on first use.
	compiled atomic.Pointer[CompiledScorer]
}

// TrainOptions tune boosting.
type TrainOptions struct {
	Rounds int
	// Smooth is the epsilon in the confidence-rated score
	// 0.5·ln((W+ + ε)/(W− + ε)); 0 means 1/(2n), the Schapire-Singer
	// default.
	Smooth float64
	// Features restricts training to the given feature indices; nil means
	// all features. Single-element slices give the per-feature predictors
	// of the top-N AP selection method.
	Features []int
	// Workers sizes the worker pool for the per-round stump search:
	// 0 = runtime.GOMAXPROCS, 1 = the exact sequential path. The trained
	// model is bit-identical at any setting (see DESIGN.md, "Parallelism
	// model").
	Workers int
}

// TrainBStump boosts decision stumps on the quantized design matrix.
// Labels are binary; weights start uniform.
func TrainBStump(bm *BinnedMatrix, q *Quantizer, y []bool, opt TrainOptions) (*BStump, error) {
	if bm.N == 0 || len(bm.Bins) == 0 {
		return nil, fmt.Errorf("ml: empty training matrix")
	}
	if len(y) != bm.N {
		return nil, fmt.Errorf("ml: %d labels for %d examples", len(y), bm.N)
	}
	if opt.Rounds <= 0 {
		return nil, fmt.Errorf("ml: Rounds must be positive")
	}
	features := opt.Features
	if features == nil {
		features = make([]int, len(bm.Bins))
		for i := range features {
			features[i] = i
		}
	}
	for _, f := range features {
		if f < 0 || f >= len(bm.Bins) {
			return nil, fmt.Errorf("ml: feature index %d out of range", f)
		}
	}
	eps := opt.Smooth
	if eps == 0 {
		eps = 1 / (2 * float64(bm.N))
	}

	n := bm.N
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}

	model := &BStump{Names: bm.Names}
	for t := 0; t < opt.Rounds; t++ {
		best, ok := bestStumpRows(bm, q, y, w, nil, features, eps, opt.Workers)
		if !ok {
			break // no splittable feature
		}
		model.Stumps = append(model.Stumps, best)

		// Reweight: w_i ← w_i · exp(−y_i · h_t(x_i)), renormalised.
		bins := bm.Bins[best.Feature]
		var total float64
		for i := range w {
			s := best.SHigh
			if bins[i] <= best.Cut {
				s = best.SLow
			}
			if y[i] {
				w[i] *= math.Exp(-s)
			} else {
				w[i] *= math.Exp(s)
			}
			total += w[i]
		}
		if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
			return nil, fmt.Errorf("ml: weight normalisation degenerated at round %d", t)
		}
		for i := range w {
			w[i] /= total
		}
	}
	if len(model.Stumps) == 0 {
		return nil, fmt.Errorf("ml: no stump could be trained (constant features?)")
	}
	return model, nil
}

// Score returns the raw ensemble score f(x) = Σ_t g_t(x) for example i.
func (m *BStump) Score(bm *BinnedMatrix, i int) float64 {
	s := 0.0
	for _, st := range m.Stumps {
		if st.Feature < 0 || bm.Bins[st.Feature][i] <= st.Cut {
			s += st.SLow
		} else {
			s += st.SHigh
		}
	}
	return s
}

// ScoreAll scores every example with the default worker count.
func (m *BStump) ScoreAll(bm *BinnedMatrix) []float64 {
	return m.ScoreAllWorkers(bm, 0)
}

// ScoreAllWorkers scores every example on the given number of workers
// (0 = GOMAXPROCS, 1 = sequential), stump-major within each example chunk
// for cache efficiency. Each example's score accumulates over stumps in
// ensemble order at any worker count, so the output is bit-identical to the
// sequential pass.
func (m *BStump) ScoreAllWorkers(bm *BinnedMatrix, workers int) []float64 {
	out := make([]float64, bm.N)
	parallel.For(bm.N, workers, func(_, start, end int) {
		for _, st := range m.Stumps {
			if st.Feature < 0 {
				for i := start; i < end; i++ {
					out[i] += st.SLow
				}
				continue
			}
			bins := bm.Bins[st.Feature]
			for i := start; i < end; i++ {
				if bins[i] <= st.Cut {
					out[i] += st.SLow
				} else {
					out[i] += st.SHigh
				}
			}
		}
	})
	return out
}

// Probability converts a raw score to P(y=1|x) via the fitted logistic
// calibration (the paper's "logistic calibration" of the BStump output).
// Calibrate must have been called.
func (m *BStump) Probability(score float64) float64 {
	return m.Calib.Apply(score)
}

// FeatureImportance returns, per feature, the total confidence swing
// |SHigh − SLow| accumulated across the ensemble's stumps — how much the
// model's output can move on account of that feature. Useful for the
// Fig. 5/Fig. 9 style model walkthroughs.
func (m *BStump) FeatureImportance() map[int]float64 {
	imp := map[int]float64{}
	for _, st := range m.Stumps {
		if st.Feature < 0 {
			continue // constant stump: no feature moves the output
		}
		d := st.SHigh - st.SLow
		if d < 0 {
			d = -d
		}
		imp[st.Feature] += d
	}
	return imp
}

// TopFeatures returns the k most important features as (name, weight)
// pairs, best first.
func (m *BStump) TopFeatures(k int) []struct {
	Name   string
	Weight float64
} {
	imp := m.FeatureImportance()
	type fw struct {
		f int
		w float64
	}
	var xs []fw
	for f, w := range imp {
		xs = append(xs, fw{f, w})
	}
	sort.Slice(xs, func(a, b int) bool {
		if xs[a].w != xs[b].w {
			return xs[a].w > xs[b].w
		}
		return xs[a].f < xs[b].f
	})
	if k > len(xs) {
		k = len(xs)
	}
	out := make([]struct {
		Name   string
		Weight float64
	}, k)
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("f%d", xs[i].f)
		if xs[i].f < len(m.Names) && m.Names[xs[i].f] != "" {
			name = m.Names[xs[i].f]
		}
		out[i].Name = name
		out[i].Weight = xs[i].w
	}
	return out
}

// Explain returns a human-readable description of stump t, in the spirit of
// the paper's Fig. 5 walkthrough.
func (m *BStump) Explain(t int) string {
	st := m.Stumps[t]
	if st.Feature < 0 {
		return fmt.Sprintf("constant %+.3f", st.SLow)
	}
	name := fmt.Sprintf("f%d", st.Feature)
	if st.Feature < len(m.Names) && m.Names[st.Feature] != "" {
		name = m.Names[st.Feature]
	}
	return fmt.Sprintf("if %s < %.4g then %+.3f else %+.3f", name, st.Threshold, st.SLow, st.SHigh)
}
