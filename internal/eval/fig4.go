package eval

import (
	"fmt"
	"io"
	"sort"

	"nevermind/internal/features"
	"nevermind/internal/ml"
)

// Fig4Result reproduces Fig. 4: the distribution of per-feature top-N
// average precision for (a) history and customer features, (b) quadratic
// features, and (c) product features. The paper observes bimodal shapes for
// (a) and (b) — a cluster of informative features well separated from the
// noise floor — and selects features above 0.2 (0.3 for products).
type Fig4Result struct {
	BudgetN int
	// Scores per feature family, with names.
	HistCust []NamedScore
	Quad     []NamedScore
	Product  []NamedScore
	// Thresholds applied by the pipeline, and how many features survive.
	HistCustThreshold, QuadThreshold, ProductThreshold float64
	HistCustKept, QuadKept, ProductKept                int
}

// NamedScore pairs a feature name with its criterion score.
type NamedScore struct {
	Name  string
	Score float64
}

// RunFig4 scores every candidate feature with the top-N AP criterion on the
// training weeks.
func (c *Context) RunFig4() (*Fig4Result, error) {
	examples := features.ExamplesForWeeks(c.DS, c.trainWeeks())
	enc, err := features.Encode(c.DS, c.Ix, examples, features.Config{Quadratic: true})
	if err != nil {
		return nil, err
	}
	y := features.Labels(c.Ix, examples, 28)
	selN := c.Cfg.BudgetN * len(c.trainWeeks())
	opt := ml.SelectOptions{N: selN, Seed: c.Cfg.Seed, MaxExamples: c.Cfg.MaxSelectExamples, Workers: c.Cfg.Workers}

	scores, err := ml.FeatureScores(enc.Cols, y, ml.CritTopNAP, opt)
	if err != nil {
		return nil, err
	}

	res := &Fig4Result{BudgetN: c.Cfg.BudgetN}
	histIdx := enc.IndicesOfGroups(features.GroupBasic, features.GroupDelta, features.GroupTS,
		features.GroupProfile, features.GroupTicket, features.GroupModem)
	for _, i := range histIdx {
		res.HistCust = append(res.HistCust, NamedScore{enc.Cols[i].Name, scores[i]})
	}
	for _, i := range enc.IndicesOfGroups(features.GroupQuad) {
		res.Quad = append(res.Quad, NamedScore{enc.Cols[i].Name, scores[i]})
	}

	// Product candidates: cross the strongest base features (Fig. 4c's
	// population; the paper scores a few thousand products).
	histScores := make([]float64, len(histIdx))
	for k, i := range histIdx {
		histScores[k] = scores[i]
	}
	order := ml.RankDesc(histScores)
	baseK := 30
	if baseK > len(order) {
		baseK = len(order)
	}
	var baseIdx []int
	for _, k := range order[:baseK] {
		baseIdx = append(baseIdx, histIdx[k])
	}
	pairs := features.AllPairs(baseIdx)
	prodCols, err := features.ProductColumns(enc, pairs)
	if err != nil {
		return nil, err
	}
	prodScores, err := ml.FeatureScores(prodCols, y, ml.CritTopNAP, opt)
	if err != nil {
		return nil, err
	}
	for i, col := range prodCols {
		res.Product = append(res.Product, NamedScore{col.Name, prodScores[i]})
	}

	// Thresholds: the paper's absolute 0.2/0.2/0.3 separate the bimodal
	// clusters of its data; on this substrate the informative cluster sits
	// at a different absolute level, so place each cutoff at half the top
	// score — the same "well above the noise floor" rule — and report it.
	res.HistCustThreshold = halfTop(res.HistCust)
	res.QuadThreshold = halfTop(res.Quad)
	res.ProductThreshold = 1.5 * halfTop(res.Product) // products must beat both parents (§4.3)
	res.HistCustKept = countAbove(res.HistCust, res.HistCustThreshold)
	res.QuadKept = countAbove(res.Quad, res.QuadThreshold)
	res.ProductKept = countAbove(res.Product, res.ProductThreshold)
	return res, nil
}

func halfTop(xs []NamedScore) float64 {
	max := 0.0
	for _, x := range xs {
		if x.Score > max {
			max = x.Score
		}
	}
	return max / 2
}

func countAbove(xs []NamedScore, thr float64) int {
	n := 0
	for _, x := range xs {
		if x.Score > thr {
			n++
		}
	}
	return n
}

// Render prints the three histograms and the selection summary.
func (r *Fig4Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 4 — top-%d average precision per feature\n\n", r.BudgetN)
	families := []struct {
		name string
		xs   []NamedScore
		thr  float64
		kept int
	}{
		{"(a) history and customer features", r.HistCust, r.HistCustThreshold, r.HistCustKept},
		{"(b) quadratic features", r.Quad, r.QuadThreshold, r.QuadKept},
		{"(c) product features", r.Product, r.ProductThreshold, r.ProductKept},
	}
	for _, f := range families {
		max := 0.0
		for _, x := range f.xs {
			if x.Score > max {
				max = x.Score
			}
		}
		if max == 0 {
			max = 1
		}
		vals := make([]float64, len(f.xs))
		for i, x := range f.xs {
			vals[i] = x.Score
		}
		hist := ml.Histogram(vals, 0, max*1.0001, 20)
		fmt.Fprintf(w, "%s: %d features, AP(N) in [0, %.3f]\n", f.name, len(f.xs), max)
		fmt.Fprintf(w, "  histogram %s\n", sparkline(hist))
		fmt.Fprintf(w, "  threshold %.3f keeps %d features\n", f.thr, f.kept)
		top := append([]NamedScore(nil), f.xs...)
		sort.Slice(top, func(a, b int) bool { return top[a].Score > top[b].Score })
		for i := 0; i < 5 && i < len(top); i++ {
			fmt.Fprintf(w, "    %-40s %.4f\n", top[i].Name, top[i].Score)
		}
		fmt.Fprintln(w)
	}
	return nil
}
