// Package core implements NEVERMIND itself (§3.2): the ticket predictor,
// which ranks every DSL line by the probability of a customer trouble ticket
// in the next T weeks and hands the top N to the dispatch system, and the
// trouble locator, which ranks the 52 candidate dispositions for a dispatch
// so the technician tests the likely locations first.
package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"nevermind/internal/data"
	"nevermind/internal/features"
	"nevermind/internal/ml"
	"nevermind/internal/rng"
)

// PredictorConfig tunes the ticket-prediction pipeline of §4.
type PredictorConfig struct {
	// WindowDays is T, the label horizon (§4.1). The paper uses 4 weeks to
	// cover hard-to-perceive problems and absent customers.
	WindowDays int
	// BudgetN is the operational budget: how many predicted tickets ATDS
	// can absorb per ranking. The paper's network allows 20K out of
	// millions of lines; the default scales that ratio to the population.
	BudgetN int
	// Rounds is the number of boosting iterations (paper: 800 by
	// cross-validation; the default trades a sliver of accuracy for
	// minutes of wall-clock).
	Rounds int
	// SelectTopK is how many history+customer features survive selection
	// (paper's Fig. 6 uses the top 50). Families are selected separately,
	// as in Fig. 4's per-family thresholds, so derived features never
	// displace base ones.
	SelectTopK int
	// QuadTopK keeps the best quadratic features when UseDerived is set.
	QuadTopK int
	// ProductBaseK crosses the top-K selected base features into candidate
	// product features.
	ProductBaseK int
	// ProductTopK keeps the best-scoring products.
	ProductTopK int
	// Criterion picks the feature-selection method; the paper's method is
	// top-N AP (the default). Fig. 6 swaps in the Table 4 baselines.
	Criterion ml.Criterion
	// UseDerived enables the quadratic and product features of Table 3;
	// Fig. 7's dotted curve disables them.
	UseDerived bool
	// MaxSelectExamples subsamples the per-feature selection pass.
	MaxSelectExamples int
	// CandidateGroups restricts the candidate columns to the given Table 3
	// groups (nil = all). Fig. 6 compares selection methods on history
	// features only.
	CandidateGroups []features.Group
	// Bins is the stump quantizer resolution for the final model.
	Bins int
	// HistoryWeeks is the long-term feature window.
	HistoryWeeks int
	// Seed drives every random choice in the pipeline.
	Seed uint64
	// Workers sizes the worker pools of every hot path in the pipeline
	// (stump search, per-column selection, quantization, scoring):
	// 0 = runtime.GOMAXPROCS, 1 = the exact sequential path. Results are
	// bit-identical at any setting (see DESIGN.md, "Parallelism model").
	Workers int
}

// DefaultPredictorConfig sizes the pipeline for a population of numLines.
func DefaultPredictorConfig(numLines int, seed uint64) PredictorConfig {
	budget := numLines / 50 // 2%: the 20K-of-millions operating point
	if budget < 10 {
		budget = 10
	}
	return PredictorConfig{
		WindowDays:        28,
		BudgetN:           budget,
		Rounds:            250,
		SelectTopK:        40,
		QuadTopK:          10,
		ProductBaseK:      16,
		ProductTopK:       15,
		Criterion:         ml.CritTopNAP,
		UseDerived:        true,
		MaxSelectExamples: 60000,
		Bins:              128,
		HistoryWeeks:      26,
		Seed:              seed,
	}
}

// TicketPredictor is the trained §4 pipeline. It remembers the selected
// column names and product pairs so new weeks re-encode identically.
type TicketPredictor struct {
	Cfg PredictorConfig

	Model *ml.BStump
	Quant *ml.Quantizer

	// SelectedCols are the names of the surviving base (history, customer,
	// quadratic) columns, in training order.
	SelectedCols []string
	// ProductPairs are the surviving products, by base-column name.
	ProductPairs [][2]string
	// Scores of each candidate column from selection, for inspection.
	SelectionScores map[string]float64
	// SelectionSkips reports candidate columns that selection could not
	// score (and assigned 0), one formatted line per column.
	SelectionSkips []string
	// CalibrationHoldout is the number of training examples held out of
	// boosting to fit the logistic calibration; 0 means the training set was
	// too small to split and calibration fell back to in-sample scores.
	CalibrationHoldout int

	// plan is the scoring encode folded from Model and Quant (see
	// servingPlan), built on first scoring and rebuilt whenever
	// Model.Compiled() re-folds. Unexported, so gob skips it.
	plan atomic.Pointer[encodePlan]
}

// Prediction is one ranked line.
type Prediction struct {
	Line        data.LineID
	Week        int
	Score       float64
	Probability float64
}

// TrainPredictor learns the full pipeline on the given training weeks of a
// dataset: encode → select features → train BStump → calibrate.
func TrainPredictor(ds *data.Dataset, trainWeeks []int, cfg PredictorConfig) (*TicketPredictor, error) {
	if err := validatePredictorConfig(cfg); err != nil {
		return nil, err
	}
	if len(trainWeeks) == 0 {
		return nil, fmt.Errorf("core: no training weeks")
	}
	ix := data.NewTicketIndex(ds)
	examples := features.ExamplesForWeeks(ds, trainWeeks)
	enc, err := features.Encode(ds, ix, examples, features.Config{
		HistoryWeeks: cfg.HistoryWeeks, Quadratic: cfg.UseDerived,
	})
	if err != nil {
		return nil, err
	}
	if cfg.CandidateGroups != nil {
		enc, err = enc.Subset(enc.IndicesOfGroups(cfg.CandidateGroups...))
		if err != nil {
			return nil, err
		}
	}
	y := features.Labels(ix, examples, cfg.WindowDays)

	// The selection budget is the per-ranking budget scaled to the number
	// of rankings stacked in the training set.
	selN := cfg.BudgetN * len(trainWeeks)
	selOpt := ml.SelectOptions{
		N: selN, Seed: cfg.Seed, MaxExamples: cfg.MaxSelectExamples,
		Workers: cfg.Workers,
	}

	// Score every candidate column, then select per family (Fig. 4 applies
	// separate thresholds to history/customer, quadratic and product
	// features): the top SelectTopK history+customer columns plus the top
	// QuadTopK quadratic columns.
	scores, skips, err := ml.FeatureScoresDetail(enc.Cols, y, cfg.Criterion, selOpt)
	if err != nil {
		return nil, fmt.Errorf("core: feature selection: %w", err)
	}
	p := &TicketPredictor{Cfg: cfg, SelectionScores: map[string]float64{}}
	for _, s := range skips {
		p.SelectionSkips = append(p.SelectionSkips, s.String())
	}
	for i, c := range enc.Cols {
		p.SelectionScores[c.Name] = scores[i]
	}
	order := ml.RankDesc(scores)
	var keep []int
	baseTaken, quadTaken := 0, 0
	for _, i := range order {
		if enc.Groups[i] == features.GroupQuad {
			if quadTaken < cfg.QuadTopK {
				keep = append(keep, i)
				quadTaken++
			}
		} else if baseTaken < cfg.SelectTopK {
			keep = append(keep, i)
			baseTaken++
		}
	}
	sort.Ints(keep)
	for _, i := range keep {
		p.SelectedCols = append(p.SelectedCols, enc.Cols[i].Name)
	}

	finalEnc, err := enc.Subset(keep)
	if err != nil {
		return nil, err
	}

	if cfg.UseDerived && cfg.ProductBaseK > 1 && cfg.ProductTopK > 0 {
		// Cross the best history+customer features, score the candidate
		// products, keep the winners (the Fig. 4c step).
		var baseOrder []int
		for _, i := range order {
			if enc.Groups[i] != features.GroupQuad {
				baseOrder = append(baseOrder, i)
			}
		}
		baseK := cfg.ProductBaseK
		if baseK > len(baseOrder) {
			baseK = len(baseOrder)
		}
		pairs := features.AllPairs(baseOrder[:baseK])
		prodCols, err := features.ProductColumns(enc, pairs)
		if err != nil {
			return nil, err
		}
		prodScores, prodSkips, err := ml.FeatureScoresDetail(prodCols, y, cfg.Criterion, selOpt)
		if err != nil {
			return nil, fmt.Errorf("core: product selection: %w", err)
		}
		for _, s := range prodSkips {
			p.SelectionSkips = append(p.SelectionSkips, s.String())
		}
		prodOrder := ml.RankDesc(prodScores)
		var kept []ml.Column
		for _, pi := range prodOrder {
			if len(kept) >= cfg.ProductTopK {
				break
			}
			// A product only earns a slot by beating both of its parents
			// with margin — the paper's rationale for the higher product
			// threshold in Fig. 4c. This filters the winner's-curse
			// products that merely matched their best parent on the
			// selection subsample.
			parentBest := math.Max(scores[pairs[pi].A], scores[pairs[pi].B])
			if prodScores[pi] <= 1.15*parentBest {
				continue
			}
			kept = append(kept, prodCols[pi])
			p.ProductPairs = append(p.ProductPairs, [2]string{
				enc.Cols[pairs[pi].A].Name, enc.Cols[pairs[pi].B].Name,
			})
			p.SelectionScores[prodCols[pi].Name] = prodScores[pi]
		}
		if err := finalEnc.AppendColumns(kept, features.GroupProd); err != nil {
			return nil, err
		}
	}

	// Final model. The logistic calibration must not be fitted on the same
	// margins the booster optimised: training-set margins are systematically
	// inflated, which made Probability overconfident on every fresh week. A
	// seeded internal slice of the training examples is therefore held out
	// of boosting and calibration is fitted on the holdout's scores; tiny
	// training sets that cannot spare a holdout fall back to the in-sample
	// fit (recorded as CalibrationHoldout == 0).
	q, err := ml.FitQuantizer(finalEnc.Cols, cfg.Bins)
	if err != nil {
		return nil, err
	}
	bm, err := q.TransformWorkers(finalEnc.Cols, cfg.Workers)
	if err != nil {
		return nil, err
	}
	boostBM, boostY := bm, y
	var calibBM *ml.BinnedMatrix
	var calibY []bool
	if fitIdx, holdIdx, ok := calibrationSplit(y, cfg.Seed); ok {
		boostBM, boostY = bm.SubsetRows(fitIdx), subsetBools(y, fitIdx)
		calibBM, calibY = bm.SubsetRows(holdIdx), subsetBools(y, holdIdx)
		p.CalibrationHoldout = len(holdIdx)
	}
	model, err := ml.TrainBStump(boostBM, q, boostY, ml.TrainOptions{Rounds: cfg.Rounds, Workers: cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("core: boosting: %w", err)
	}
	if calibBM != nil {
		err = model.Calibrate(model.ScoreAllWorkers(calibBM, cfg.Workers), calibY)
	} else {
		err = model.Calibrate(model.ScoreAllWorkers(boostBM, cfg.Workers), boostY)
	}
	if err != nil {
		return nil, fmt.Errorf("core: calibration: %w", err)
	}
	p.Model = model
	p.Quant = q
	return p, nil
}

// calibrationHoldoutLabel salts the calibration split's RNG stream so it is
// independent of the selection subsample and split streams.
const calibrationHoldoutLabel = 0xca11b

// calibrationSplit carves a seeded calibration holdout out of n training
// examples: 20% of them, at most 10000 (two logistic parameters need no
// more), kept in original example order. It declines (ok == false) when the
// training set is too small to spare a slice or either side would be left
// with a single class, in which case the caller falls back to the in-sample
// fit.
func calibrationSplit(y []bool, seed uint64) (fitIdx, holdIdx []int, ok bool) {
	n := len(y)
	if n < 1000 {
		return nil, nil, false
	}
	hold := n / 5
	if hold > 10000 {
		hold = 10000
	}
	perm := rng.Derive(seed, calibrationHoldoutLabel).Perm(n)
	holdIdx = append([]int(nil), perm[:hold]...)
	fitIdx = append([]int(nil), perm[hold:]...)
	sort.Ints(holdIdx)
	sort.Ints(fitIdx)
	if !bothClasses(y, holdIdx) || !bothClasses(y, fitIdx) {
		return nil, nil, false
	}
	return fitIdx, holdIdx, true
}

func bothClasses(y []bool, idx []int) bool {
	var pos, neg bool
	for _, i := range idx {
		if y[i] {
			pos = true
		} else {
			neg = true
		}
		if pos && neg {
			return true
		}
	}
	return false
}

func subsetBools(y []bool, idx []int) []bool {
	out := make([]bool, len(idx))
	for i, r := range idx {
		out[i] = y[r]
	}
	return out
}

// SchemaFingerprint hashes the predictor's scoring schema — selected
// columns, product pairs, encoder settings, and the quantizer's content
// fingerprint — for operational surfaces: health endpoints and reload logs
// report it so operators can tell whether a model swap changed the scoring
// schema. It does not cover the stump values themselves — two retrains on
// the same schema share a fingerprint.
func (p *TicketPredictor) SchemaFingerprint() uint64 {
	h := fnv.New64a()
	for _, name := range p.SelectedCols {
		io.WriteString(h, name)
		h.Write([]byte{0})
	}
	for _, pp := range p.ProductPairs {
		io.WriteString(h, pp[0])
		h.Write([]byte{1})
		io.WriteString(h, pp[1])
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "|h%d|d%v|q%016x", p.Cfg.HistoryWeeks, p.Cfg.UseDerived, p.Quant.Fingerprint())
	return h.Sum64()
}

// encodePlan scores examples from the columns the model's stumps read: it
// encodes only those (with only the history sums they need) and maps each
// value straight to its stump interval, with no quantizing. Scores are
// bit-identical to the binned path — every schema column encoded,
// quantized by Quant and scored by Model.Compiled() — which the package's
// tests keep as the oracle (see ml.ThresholdScorer).
type encodePlan struct {
	cols   *features.ColumnSet
	scorer *ml.ThresholdScorer
}

// servingPlan returns the predictor's encode plan, folding it on first use
// and again whenever Model.Compiled() has re-folded since. It refuses a
// schema the encoder cannot produce, used columns or not.
func (p *TicketPredictor) servingPlan() (*encodePlan, error) {
	if pl := p.plan.Load(); pl != nil && pl.scorer.Compiled == p.Model.Compiled() {
		return pl, nil
	}
	names := append([]string(nil), p.SelectedCols...)
	for _, pp := range p.ProductPairs {
		names = append(names, "prod:"+pp[0]+"*"+pp[1])
	}
	if len(names) != len(p.Quant.Cuts) {
		return nil, fmt.Errorf("core: schema has %d columns, quantizer %d", len(names), len(p.Quant.Cuts))
	}
	cfg := features.Config{HistoryWeeks: p.Cfg.HistoryWeeks, Quadratic: p.Cfg.UseDerived}
	if _, err := features.NewColumnSet(cfg, names); err != nil {
		return nil, fmt.Errorf("core: schema drift: %w", err)
	}
	sc, err := ml.CompileThresholds(p.Model, p.Quant)
	if err != nil {
		return nil, err
	}
	used := make([]string, len(sc.Features))
	for k, f := range sc.Features {
		used[k] = names[f]
	}
	cols, err := features.NewColumnSet(cfg, used)
	if err != nil {
		return nil, err
	}
	pl := &encodePlan{cols: cols, scorer: sc}
	p.plan.Store(pl)
	return pl, nil
}

// Rank scores every line at the given week and returns the full ranking,
// best first. This is the Saturday run: ranking several million lines takes
// the paper's system under 15 minutes; here it is seconds.
func (p *TicketPredictor) Rank(ds *data.Dataset, week int) ([]Prediction, error) {
	examples := features.ExamplesForWeeks(ds, []int{week})
	scores, err := p.ScoreExamples(ds, examples)
	if err != nil {
		return nil, err
	}
	order := ml.RankDesc(scores)
	out := make([]Prediction, len(order))
	for rank, i := range order {
		out[rank] = Prediction{
			Line:        examples[i].Line,
			Week:        week,
			Score:       scores[i],
			Probability: p.Model.Probability(scores[i]),
		}
	}
	return out, nil
}

// TopN returns the budgeted prediction list for a week: the lines NEVERMIND
// submits to ATDS.
func (p *TicketPredictor) TopN(ds *data.Dataset, week int) ([]Prediction, error) {
	all, err := p.Rank(ds, week)
	if err != nil {
		return nil, err
	}
	n := p.Cfg.BudgetN
	if n > len(all) {
		n = len(all)
	}
	return all[:n], nil
}

// ScoreExamples scores arbitrary (line, week) examples, for evaluation.
func (p *TicketPredictor) ScoreExamples(ds *data.Dataset, examples []features.Example) ([]float64, error) {
	return p.ScoreExamplesIx(ds, data.NewTicketIndex(ds), examples)
}

// ScoreExamplesIx is ScoreExamples with a caller-supplied ticket index, the
// batch entry point for long-lived servers that score many requests against
// one dataset snapshot: building the index once per snapshot instead of once
// per request removes an O(tickets) pass from the hot path. It scores
// through the encode plan (see encodePlan).
func (p *TicketPredictor) ScoreExamplesIx(ds *data.Dataset, ix *data.TicketIndex, examples []features.Example) ([]float64, error) {
	return p.ScoreExamplesFallback(ds, ix, examples, nil)
}

// ScoreExamplesFallback is ScoreExamplesIx with the encode's imputation
// fallback supplied. A non-nil fallback must be the vector the encode would
// compute itself — features.WeekFallback(ds, w) when every example is at
// week w — and only saves that pass over the population; nil computes it
// (the mean over the examples' weeks).
func (p *TicketPredictor) ScoreExamplesFallback(ds *data.Dataset, ix *data.TicketIndex, examples []features.Example, fallback []float32) ([]float64, error) {
	pl, err := p.servingPlan()
	if err != nil {
		return nil, err
	}
	enc, err := pl.cols.Encode(ds, ix, examples, fallback, p.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	return pl.scorer.ScoreWorkers(enc.Cols, len(examples), p.Cfg.Workers)
}

// PredictExamples scores arbitrary examples and returns full Predictions
// (score plus calibrated probability), preserving example order. It is the
// store-backed batch entry point the serving subsystem ranks from; a nil ix
// builds the ticket index from ds.
func (p *TicketPredictor) PredictExamples(ds *data.Dataset, ix *data.TicketIndex, examples []features.Example) ([]Prediction, error) {
	if ix == nil {
		ix = data.NewTicketIndex(ds)
	}
	scores, err := p.ScoreExamplesIx(ds, ix, examples)
	if err != nil {
		return nil, err
	}
	out := make([]Prediction, len(examples))
	for i, ex := range examples {
		out[i] = Prediction{
			Line:        ex.Line,
			Week:        ex.Week,
			Score:       scores[i],
			Probability: p.Model.Probability(scores[i]),
		}
	}
	return out, nil
}

func validatePredictorConfig(cfg PredictorConfig) error {
	switch {
	case cfg.WindowDays <= 0:
		return fmt.Errorf("core: WindowDays must be positive")
	case cfg.BudgetN <= 0:
		return fmt.Errorf("core: BudgetN must be positive")
	case cfg.Rounds <= 0:
		return fmt.Errorf("core: Rounds must be positive")
	case cfg.SelectTopK <= 0:
		return fmt.Errorf("core: SelectTopK must be positive")
	case cfg.Bins < 2:
		return fmt.Errorf("core: Bins must be at least 2")
	}
	return nil
}
