package eval

import (
	"fmt"
	"io"

	"nevermind/internal/core"
	"nevermind/internal/features"
	"nevermind/internal/ml"
)

// Fig7Result reproduces Fig. 7: ticket-prediction accuracy with history and
// customer features only (dotted curve) versus all Table 3 features
// including the derived quadratic and product features (solid curve). The
// paper reports 37.8% → 40% at the 20K budget from adding derived features.
type Fig7Result struct {
	BudgetN int
	Ks      []int
	// Without uses history+customer features; With adds derived features.
	Without, With []float64
	// The headline numbers at the budget point.
	WithoutAtBudget, WithAtBudget float64
	BaseRate                      float64
}

// RunFig7 trains the two pipelines and evaluates over the held-out test
// weeks (pooled; the budget point is BudgetN × #weeks).
func (c *Context) RunFig7() (*Fig7Result, error) {
	budget := c.Cfg.BudgetN * len(c.Cfg.TestWeeks)
	ks := budgetSweep(budget, c.DS.NumLines*len(c.Cfg.TestWeeks))
	ex := features.ExamplesForWeeks(c.DS, c.Cfg.TestWeeks)
	y := features.Labels(c.Ix, ex, 28)
	res := &Fig7Result{BudgetN: budget, Ks: ks}
	for _, v := range y {
		if v {
			res.BaseRate++
		}
	}
	res.BaseRate /= float64(len(y))

	run := func(derived bool) ([]float64, error) {
		cfg := c.predictorConfig()
		cfg.UseDerived = derived
		pred, err := core.TrainPredictor(c.DS, c.trainWeeks(), cfg)
		if err != nil {
			return nil, err
		}
		scores, err := pred.ScoreExamples(c.DS, ex)
		if err != nil {
			return nil, err
		}
		return ml.PrecisionCurve(scores, y, ks), nil
	}
	var err error
	if res.Without, err = run(false); err != nil {
		return nil, fmt.Errorf("eval: fig7 without derived: %w", err)
	}
	if res.With, err = run(true); err != nil {
		return nil, fmt.Errorf("eval: fig7 with derived: %w", err)
	}
	for i, k := range ks {
		if k == budget {
			res.WithoutAtBudget = res.Without[i]
			res.WithAtBudget = res.With[i]
		}
	}
	return res, nil
}

// Render prints the two curves and the budget-point comparison.
func (r *Fig7Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 7 — prediction accuracy with and without derived features (budget N = %d)\n\n", r.BudgetN)
	header := []string{"feature set"}
	for _, k := range r.Ks {
		header = append(header, fmt.Sprintf("@%d", k))
	}
	rows := [][]string{
		append([]string{"history+customer"}, pcts(r.Without)...),
		append([]string{"all (with derived)"}, pcts(r.With)...),
	}
	if err := table(w, header, rows); err != nil {
		return err
	}
	ratio := 0.0
	if r.WithAtBudget > 0 && r.WithAtBudget < 1 {
		ratio = (1 - r.WithAtBudget) / r.WithAtBudget
	}
	fmt.Fprintf(w, "\nat budget: %s without derived, %s with derived (1 true : %.1f incorrect); base rate %s\n",
		pct(r.WithoutAtBudget), pct(r.WithAtBudget), ratio, pct(r.BaseRate))
	return nil
}

func pcts(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = pct(x)
	}
	return out
}
