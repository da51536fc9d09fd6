package ml

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"nevermind/internal/parallel"
)

// Column is one feature across all examples. Categorical columns must be
// binary indicators (the feature encoder expands multi-valued categoricals;
// §4.2, footnote 2), for which a threshold stump and an equality stump
// coincide.
type Column struct {
	Name        string
	Categorical bool
	Values      []float32
}

// Quantizer maps continuous features onto at most maxBins quantile bins so
// a boosting round can evaluate every stump threshold with one counting
// pass. Cuts are learned on the training distribution and then applied
// unchanged to test data, so train and test agree on the meaning of a bin.
type Quantizer struct {
	Cuts  [][]float32 // per feature, ascending bin upper boundaries (exclusive)
	Names []string
}

// maxStumpBins is the bin alphabet: uint8 bins keep the design matrix at one
// byte per cell.
const maxStumpBins = 256

// FitQuantizer learns quantile cuts from the columns. Binary categorical
// columns get the single natural cut at 0.5.
func FitQuantizer(cols []Column, maxBins int) (*Quantizer, error) {
	if maxBins < 2 || maxBins > maxStumpBins {
		return nil, fmt.Errorf("ml: maxBins %d outside [2,%d]", maxBins, maxStumpBins)
	}
	q := &Quantizer{Cuts: make([][]float32, len(cols)), Names: make([]string, len(cols))}
	for ci, col := range cols {
		q.Names[ci] = col.Name
		if col.Categorical {
			q.Cuts[ci] = []float32{0.5}
			continue
		}
		sorted := append([]float32(nil), col.Values...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		var cuts []float32
		// Cuts must exceed the minimum so "bin <= cut" splits are never
		// empty on the left; a constant column therefore yields no cuts.
		prev := float32(math.Inf(-1))
		if len(sorted) > 0 {
			prev = sorted[0]
		}
		for b := 1; b < maxBins; b++ {
			v := sorted[len(sorted)*b/maxBins]
			if v > prev {
				cuts = append(cuts, v)
				prev = v
			}
		}
		q.Cuts[ci] = cuts
	}
	return q, nil
}

// BinnedMatrix is the quantized design matrix, feature-major.
type BinnedMatrix struct {
	N     int
	Names []string
	Bins  [][]uint8 // per feature, per example: index into [0, len(cuts)]
}

// Transform quantizes columns with the learned cuts using the default worker
// count. The columns must match the fitted schema.
func (q *Quantizer) Transform(cols []Column) (*BinnedMatrix, error) {
	return q.TransformWorkers(cols, 0)
}

// TransformWorkers quantizes columns on the given number of workers
// (0 = GOMAXPROCS, 1 = sequential). Example rows are chunked; every cell's
// bin depends only on its own value and the fitted cuts, so the matrix is
// bit-identical at any worker count.
func (q *Quantizer) TransformWorkers(cols []Column, workers int) (*BinnedMatrix, error) {
	if len(cols) != len(q.Cuts) {
		return nil, fmt.Errorf("ml: transform got %d columns, fitted %d", len(cols), len(q.Cuts))
	}
	if len(cols) == 0 {
		return &BinnedMatrix{}, nil
	}
	n := len(cols[0].Values)
	bm := &BinnedMatrix{N: n, Names: q.Names, Bins: make([][]uint8, len(cols))}
	for ci, col := range cols {
		if len(col.Values) != n {
			return nil, fmt.Errorf("ml: column %q has %d values, want %d", col.Name, len(col.Values), n)
		}
		bm.Bins[ci] = make([]uint8, n)
	}
	parallel.For(n, workers, func(_, start, end int) {
		for ci := range cols {
			cuts := q.Cuts[ci]
			vals := cols[ci].Values
			bins := bm.Bins[ci]
			for i := start; i < end; i++ {
				// First cut strictly greater than v; bin = count of cuts <= v.
				v := vals[i]
				bins[i] = uint8(sort.Search(len(cuts), func(j int) bool { return cuts[j] > v }))
			}
		}
	})
	return bm, nil
}

// SubsetRows returns a new BinnedMatrix holding the given example rows, in
// the given order. Used to carve held-out slices (e.g. the calibration
// holdout) out of an already-quantized training matrix without re-encoding.
func (bm *BinnedMatrix) SubsetRows(idx []int) *BinnedMatrix {
	out := &BinnedMatrix{N: len(idx), Names: bm.Names, Bins: make([][]uint8, len(bm.Bins))}
	for f, bins := range bm.Bins {
		sub := make([]uint8, len(idx))
		for i, r := range idx {
			sub[i] = bins[r]
		}
		out.Bins[f] = sub
	}
	return out
}

// Fingerprint identifies the fitted quantizer by content (feature names and
// exact cut bit patterns): two quantizers with equal fingerprints bin
// identical columns identically. It is the quantizer's part of a predictor's
// schema fingerprint, where pointer identity would not survive a reload.
func (q *Quantizer) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, cuts := range q.Cuts {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(cuts)))
		h.Write(buf[:])
		for _, c := range cuts {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(c))
			h.Write(buf[:])
		}
	}
	for _, n := range q.Names {
		io.WriteString(h, n)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// NumBins returns the number of distinct bins for a feature (#cuts + 1).
func (q *Quantizer) NumBins(feature int) int { return len(q.Cuts[feature]) + 1 }

// CutValue returns the original-space threshold t realised by "bin <= b"
// for a feature, for model interpretability: bin <= b holds exactly when
// the value is < t (the paper's Fig. 5 shows thresholds like
// "delta upbr <= -112"; with quantile bins the boundary value itself lands
// on the high side).
func (q *Quantizer) CutValue(feature, b int) float32 {
	cuts := q.Cuts[feature]
	if len(cuts) == 0 {
		return float32(math.NaN())
	}
	if b >= len(cuts) {
		b = len(cuts) - 1
	}
	if b < 0 {
		b = 0
	}
	return cuts[b]
}
