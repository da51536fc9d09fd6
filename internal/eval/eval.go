// Package eval regenerates every table and figure of the paper's evaluation
// (§5 and §6.3) against the simulated substrate: one runner per artifact,
// each returning a typed result that renders as a text table. The
// per-experiment index lives in DESIGN.md; paper-vs-measured numbers are
// recorded in EXPERIMENTS.md.
package eval

import (
	"fmt"
	"io"
	"text/tabwriter"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/sim"
)

// Config sizes an experiment run. The defaults reproduce the shapes of the
// paper at laptop scale; Lines scales everything else.
type Config struct {
	// Lines is the subscriber population (the paper: millions; default
	// 20000 — every budget in the experiments scales with it).
	Lines int
	// Seed drives the simulation and every pipeline.
	Seed uint64
	// Rounds is the predictor boosting budget (paper: 800).
	Rounds int
	// LocRounds is the locator boosting budget (paper: 200).
	LocRounds int
	// MaxSelectExamples caps the feature-selection subsample.
	MaxSelectExamples int
	// TrainLo, TrainHi are the predictor training weeks, inclusive
	// (default 30..38 ≈ the paper's 08/01–09/31).
	TrainLo, TrainHi int
	// TestWeeks are the ranking weeks for evaluation (default 43..46, the
	// paper's "four contiguous weeks starting from 10/31").
	TestWeeks []int
	// BudgetN is the ATDS capacity per ranking (default Lines/50, the
	// 20K-of-a-million operating ratio).
	BudgetN int
	// Workers sizes the pipeline worker pools (0 = GOMAXPROCS,
	// 1 = sequential); results are bit-identical at any setting.
	Workers int
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Lines == 0 {
		c.Lines = 20000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Rounds == 0 {
		c.Rounds = 250
	}
	if c.LocRounds == 0 {
		c.LocRounds = 80
	}
	if c.MaxSelectExamples == 0 {
		c.MaxSelectExamples = 60000
	}
	if c.TrainLo == 0 {
		c.TrainLo = 30
	}
	if c.TrainHi == 0 {
		c.TrainHi = 38
	}
	if len(c.TestWeeks) == 0 {
		c.TestWeeks = []int{43, 44, 45, 46}
	}
	if c.BudgetN == 0 {
		c.BudgetN = c.Lines / 50
		if c.BudgetN < 10 {
			c.BudgetN = 10
		}
	}
	return c
}

// Context is one simulated year shared by all experiments.
type Context struct {
	Cfg Config
	Res *sim.Result
	DS  *data.Dataset
	Ix  *data.TicketIndex

	stdPred *core.TicketPredictor // lazily trained standard pipeline
}

// StandardPredictor returns the full-pipeline predictor trained on the
// standard split, shared by the experiments that evaluate it (Fig. 8,
// Table 5, not-on-site).
func (c *Context) StandardPredictor() (*core.TicketPredictor, error) {
	if c.stdPred == nil {
		p, err := core.TrainPredictor(c.DS, c.trainWeeks(), c.predictorConfig())
		if err != nil {
			return nil, err
		}
		c.stdPred = p
	}
	return c.stdPred, nil
}

// NewContext simulates the year.
func NewContext(cfg Config) (*Context, error) {
	cfg = cfg.Defaults()
	if cfg.TrainHi < cfg.TrainLo {
		return nil, fmt.Errorf("eval: malformed training weeks [%d,%d]", cfg.TrainLo, cfg.TrainHi)
	}
	for _, w := range cfg.TestWeeks {
		if w <= cfg.TrainHi || w >= data.Weeks {
			return nil, fmt.Errorf("eval: test week %d overlaps training [%d,%d] or the calendar", w, cfg.TrainLo, cfg.TrainHi)
		}
	}
	res, err := sim.Run(sim.DefaultConfig(cfg.Lines, cfg.Seed))
	if err != nil {
		return nil, err
	}
	return &Context{Cfg: cfg, Res: res, DS: res.Dataset, Ix: data.NewTicketIndex(res.Dataset)}, nil
}

// predictorConfig builds the standard predictor configuration for this run.
func (c *Context) predictorConfig() core.PredictorConfig {
	cfg := core.DefaultPredictorConfig(c.Cfg.Lines, c.Cfg.Seed)
	cfg.Rounds = c.Cfg.Rounds
	cfg.BudgetN = c.Cfg.BudgetN
	cfg.MaxSelectExamples = c.Cfg.MaxSelectExamples
	cfg.Workers = c.Cfg.Workers
	return cfg
}

// trainWeeks returns the training week list.
func (c *Context) trainWeeks() []int {
	var out []int
	for w := c.Cfg.TrainLo; w <= c.Cfg.TrainHi; w++ {
		out = append(out, w)
	}
	return out
}

// --- rendering helpers ------------------------------------------------------

// table writes rows with aligned columns.
func table(w io.Writer, header []string, rows [][]string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if header != nil {
		for i, h := range header {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, h)
		}
		fmt.Fprintln(tw)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// sparkline renders counts as a unicode bar chart line.
func sparkline(counts []int) string {
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return ""
	}
	out := make([]rune, len(counts))
	for i, c := range counts {
		g := (c*(len(glyphs)-1) + max - 1) / max
		out[i] = glyphs[g]
	}
	return string(out)
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
