package ml

import (
	"fmt"
	"math"

	"nevermind/internal/parallel"
)

// Depth-2 boosted trees: the non-linear alternative the paper declines in
// §4.4 — "because of the existence of such noise in the training data,
// sophisticated non-linear models overfit easily, we hence choose a linear
// model". TrainBTree exists to test that claim on the simulated substrate
// (the BenchmarkAblationDepth ablation): each weak learner is a two-level
// tree (a root split and one split per side, four confidence-rated leaves).

// Tree is one depth-2 weak learner. An example routes left when
// bin(RootFeature) <= RootCut, then through the side's stump to one of four
// leaf scores.
type Tree struct {
	RootFeature int
	RootCut     uint8
	Left, Right Stump // leaf scores live in the child stumps
}

// Score routes one example through the tree.
func (t *Tree) Score(bm *BinnedMatrix, i int) float64 {
	child := &t.Right
	if bm.Bins[t.RootFeature][i] <= t.RootCut {
		child = &t.Left
	}
	if child.Feature < 0 { // constant leaf: no feature is consulted
		return child.SLow
	}
	if bm.Bins[child.Feature][i] <= child.Cut {
		return child.SLow
	}
	return child.SHigh
}

// BTree is a boosted ensemble of depth-2 trees.
type BTree struct {
	Trees []Tree
	Calib Calibration
}

// TrainBTree boosts depth-2 trees. The greedy construction picks the best
// stump as the root, then fits the best stump inside each partition.
func TrainBTree(bm *BinnedMatrix, q *Quantizer, y []bool, opt TrainOptions) (*BTree, error) {
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
	eps := opt.Smooth
	if eps == 0 {
		eps = 1 / (2 * float64(bm.N))
	}

	n := bm.N
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	// Partition row-index slices: each side's histogram build touches only
	// its own rows instead of rescanning all N with a mask test.
	leftRows := make([]int, 0, n)
	rightRows := make([]int, 0, n)

	model := &BTree{}
	for t := 0; t < opt.Rounds; t++ {
		root, ok := bestStumpRows(bm, q, y, w, nil, features, eps, opt.Workers)
		if !ok {
			break
		}
		rootBins := bm.Bins[root.Feature]
		leftRows, rightRows = leftRows[:0], rightRows[:0]
		for i := 0; i < n; i++ {
			if rootBins[i] <= root.Cut {
				leftRows = append(leftRows, i)
			} else {
				rightRows = append(rightRows, i)
			}
		}
		left, okL := bestStumpRows(bm, q, y, w, leftRows, features, eps, opt.Workers)
		right, okR := bestStumpRows(bm, q, y, w, rightRows, features, eps, opt.Workers)
		if !okL {
			left = constantStump(y, w, leftRows, eps)
		}
		if !okR {
			right = constantStump(y, w, rightRows, eps)
		}
		tree := Tree{RootFeature: root.Feature, RootCut: root.Cut, Left: left, Right: right}
		model.Trees = append(model.Trees, tree)

		total := 0.0
		for i := range w {
			s := tree.Score(bm, i)
			if y[i] {
				w[i] *= math.Exp(-s)
			} else {
				w[i] *= math.Exp(s)
			}
			total += w[i]
		}
		if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
			return nil, fmt.Errorf("ml: tree boosting degenerated at round %d", t)
		}
		for i := range w {
			w[i] /= total
		}
	}
	if len(model.Trees) == 0 {
		return nil, fmt.Errorf("ml: no tree could be trained")
	}
	return model, nil
}

// ScoreAll scores every example with the default worker count.
func (m *BTree) ScoreAll(bm *BinnedMatrix) []float64 {
	return m.ScoreAllWorkers(bm, 0)
}

// ScoreAllWorkers scores every example on the given number of workers
// (0 = GOMAXPROCS, 1 = sequential). Examples are chunked; each example's
// score accumulates over trees in ensemble order regardless of the worker
// count, so the output is bit-identical at any setting.
func (m *BTree) ScoreAllWorkers(bm *BinnedMatrix, workers int) []float64 {
	out := make([]float64, bm.N)
	parallel.For(bm.N, workers, func(_, start, end int) {
		for ti := range m.Trees {
			t := &m.Trees[ti]
			for i := start; i < end; i++ {
				out[i] += t.Score(bm, i)
			}
		}
	})
	return out
}

// Calibrate fits the ensemble's logistic calibration.
func (m *BTree) Calibrate(scores []float64, labels []bool) error {
	c, err := FitCalibration(scores, labels)
	if err != nil {
		return err
	}
	m.Calib = c
	return nil
}

// Probability converts a raw score to a posterior.
func (m *BTree) Probability(score float64) float64 { return m.Calib.Apply(score) }

// bestStumpRows finds the Z-minimising stump over the given example rows
// (nil = every example; row order must be ascending so weight sums keep the
// sequential accumulation order), searching the feature axis on the given
// number of workers (0 = GOMAXPROCS). TrainBTree passes each side's
// partition as a row-index slice, so a side's histogram build touches only
// its own rows instead of rescanning all N with a mask test.
//
// The reduction is order-fixed so the result is bit-identical to the
// sequential scan at any worker count: each worker scans one contiguous shard
// of the features slice with the sequential rule (strictly lower Z wins, so
// within a shard the earliest feature position and lowest cut break ties),
// and the per-shard winners are merged in shard order under the same strict
// rule. The composed comparison therefore realises exactly the sequential
// tie-break: lowest Z, then lowest position in features, then lowest cut.
func bestStumpRows(bm *BinnedMatrix, q *Quantizer, y []bool, w []float64, rows []int, features []int, eps float64, workers int) (Stump, bool) {
	type shardBest struct {
		stump Stump
		z     float64
	}
	shards := parallel.Chunks(len(features), workers)
	partial := make([]shardBest, len(shards))
	parallel.For(len(features), workers, func(shard, start, end int) {
		var wp, wn [maxStumpBins]float64
		best := Stump{Feature: -1}
		bestZ := math.Inf(1)
		for _, f := range features[start:end] {
			bins := bm.Bins[f]
			nb := q.NumBins(f)
			if nb < 2 {
				continue
			}
			for b := 0; b < nb; b++ {
				wp[b], wn[b] = 0, 0
			}
			if rows == nil {
				for i, b := range bins {
					if y[i] {
						wp[b] += w[i]
					} else {
						wn[b] += w[i]
					}
				}
			} else {
				for _, i := range rows {
					if y[i] {
						wp[bins[i]] += w[i]
					} else {
						wn[bins[i]] += w[i]
					}
				}
			}
			var tp, tn float64
			for b := 0; b < nb; b++ {
				tp += wp[b]
				tn += wn[b]
			}
			if tp+tn == 0 {
				continue
			}
			var lp, ln float64
			for c := 0; c < nb-1; c++ {
				lp += wp[c]
				ln += wn[c]
				rp, rn := tp-lp, tn-ln
				z := 2 * (math.Sqrt(lp*ln) + math.Sqrt(rp*rn))
				if z < bestZ {
					bestZ = z
					best = Stump{
						Feature: f,
						Cut:     uint8(c),
						SLow:    0.5 * math.Log((lp+eps)/(ln+eps)),
						SHigh:   0.5 * math.Log((rp+eps)/(rn+eps)),
					}
				}
			}
		}
		partial[shard] = shardBest{stump: best, z: bestZ}
	})
	best := Stump{Feature: -1}
	bestZ := math.Inf(1)
	for _, p := range partial {
		if p.stump.Feature >= 0 && p.z < bestZ {
			bestZ = p.z
			best = p.stump
		}
	}
	if best.Feature < 0 {
		return best, false
	}
	best.Threshold = q.CutValue(best.Feature, int(best.Cut))
	return best, true
}

// constantStump emits the partition's prior score on both sides, for empty
// or unsplittable partitions (rows nil = every example). Feature -1 marks
// the stump as constant so scoring and explanation never attribute it to a
// real feature (it used to reuse feature 0 with a bogus threshold, which
// misled Explain/TopFeatures).
func constantStump(y []bool, w []float64, rows []int, eps float64) Stump {
	var wp, wn float64
	if rows == nil {
		for i := range w {
			if y[i] {
				wp += w[i]
			} else {
				wn += w[i]
			}
		}
	} else {
		for _, i := range rows {
			if y[i] {
				wp += w[i]
			} else {
				wn += w[i]
			}
		}
	}
	s := 0.5 * math.Log((wp+eps)/(wn+eps))
	return Stump{Feature: -1, Cut: 255, SLow: s, SHigh: s, Threshold: float32(math.NaN())}
}
