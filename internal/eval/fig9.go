package eval

import (
	"fmt"
	"io"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/faults"
)

// Fig9Result reproduces Fig. 9: the illustration of the combined inference
// model for the inside-wiring problem at the home network — the bottom-layer
// feature partitions feeding the two intermediate classifiers (f_IW and
// f_HN) whose scores combine into P(IW_adj | x) through Eq. 2.
type Fig9Result struct {
	Disposition string
	Text        string
}

// RunFig9 trains the locator (on the standard §6.3 split) and renders the
// combined model of the paper's example disposition.
func (c *Context) RunFig9() (*Fig9Result, error) {
	splitDay := data.DayOfDate(9, 19)
	train := core.CasesFromNotes(c.DS, data.FirstSaturday, splitDay-1)
	cfg := core.DefaultLocatorConfig(c.Cfg.Seed)
	cfg.Rounds = c.Cfg.LocRounds
	cfg.Workers = c.Cfg.Workers
	loc, err := core.TrainLocator(c.DS, train, cfg)
	if err != nil {
		return nil, err
	}

	// The paper illustrates the inside-wiring (IW) problem at HN; our
	// catalog's closest disposition is "inside wire wet".
	var target faults.DispositionID = faults.None
	for _, d := range loc.Dispositions {
		if faults.Catalog[d].Name == "inside wire wet" {
			target = d
			break
		}
	}
	if target == faults.None {
		// Fall back to any HN disposition the locator kept.
		for _, d := range loc.Dispositions {
			if faults.Catalog[d].Loc == faults.HN {
				target = d
				break
			}
		}
	}
	if target == faults.None {
		return nil, fmt.Errorf("eval: locator kept no HN disposition to illustrate")
	}
	text, err := loc.ExplainCombined(target, 6)
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Disposition: faults.Catalog[target].Name, Text: text}, nil
}

// Render prints the model illustration.
func (r *Fig9Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 9 — the combined inference model for %q\n\n", r.Disposition)
	_, err := io.WriteString(w, r.Text)
	return err
}
