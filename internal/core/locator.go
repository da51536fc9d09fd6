package core

import (
	"fmt"
	"sort"
	"strings"

	"nevermind/internal/data"
	"nevermind/internal/faults"
	"nevermind/internal/features"
	"nevermind/internal/ml"
	"nevermind/internal/parallel"
)

// LocatorModel selects which inference model ranks the dispositions.
type LocatorModel int

const (
	// ModelBasic is the simple experience model of §6.1: locations ordered
	// by their historical prior probability of being the cause.
	ModelBasic LocatorModel = iota
	// ModelFlat trains a one-versus-rest classifier per disposition and
	// ranks by calibrated posterior (§6.2).
	ModelFlat
	// ModelCombined fuses each disposition classifier with its parent
	// major-location classifier through logistic regression — Eq. 2.
	ModelCombined
)

// ParseLocatorModel maps the wire names ("basic", "flat", "combined") back
// to a LocatorModel; the empty string defaults to the combined model the
// paper deploys.
func ParseLocatorModel(s string) (LocatorModel, error) {
	switch s {
	case "basic":
		return ModelBasic, nil
	case "flat":
		return ModelFlat, nil
	case "combined", "":
		return ModelCombined, nil
	}
	return 0, fmt.Errorf("core: unknown locator model %q", s)
}

func (m LocatorModel) String() string {
	switch m {
	case ModelBasic:
		return "basic"
	case ModelFlat:
		return "flat"
	case ModelCombined:
		return "combined"
	default:
		return fmt.Sprintf("LocatorModel(%d)", int(m))
	}
}

// LocatorConfig tunes trouble-locator training.
type LocatorConfig struct {
	// Rounds is the boosting budget per classifier (paper: 200 by
	// cross-validation).
	Rounds int
	// MinCases drops dispositions with fewer training dispatches (paper:
	// the 52 dispositions appearing more than 20 times).
	MinCases int
	// Bins, HistoryWeeks, Seed as in the predictor.
	Bins         int
	HistoryWeeks int
	Seed         uint64
	// Workers sizes the worker pool for per-disposition classifier training
	// (0 = runtime.GOMAXPROCS, 1 = sequential). Each disposition's model
	// trains independently on one worker, so the locator is bit-identical
	// at any setting.
	Workers int
}

// DefaultLocatorConfig returns the evaluation defaults.
func DefaultLocatorConfig(seed uint64) LocatorConfig {
	return LocatorConfig{Rounds: 80, MinCases: 20, Bins: 64, HistoryWeeks: 26, Seed: seed}
}

// DispatchCase is one labelled dispatch: the line, the measurement week
// whose Saturday precedes the ticket, and the technician's disposition.
type DispatchCase struct {
	Line data.LineID
	Week int
	Disp faults.DispositionID
}

// TroubleLocator ranks candidate dispositions for a dispatch.
type TroubleLocator struct {
	Cfg LocatorConfig

	// Dispositions kept after the MinCases filter, ascending by ID.
	Dispositions []faults.DispositionID
	// Priors is the empirical frequency of each kept disposition — the
	// basic experience model.
	Priors map[faults.DispositionID]float64

	flat     map[faults.DispositionID]*ml.BStump
	locModel map[faults.Location]*ml.BStump
	combiner map[faults.DispositionID]*ml.LogisticFit
	quant    *ml.Quantizer
	colNames []string

	// cache, when set, memoizes case encodes and quantized matrices across
	// experiments over one immutable dataset (see features.Cache);
	// unexported so gob skips it.
	cache *features.Cache
}

// SetEncodeCache attaches (or with nil detaches) a cross-experiment
// encode/bin cache; like the predictor's, it must only see the dataset it
// was filled from.
func (l *TroubleLocator) SetEncodeCache(c *features.Cache) { l.cache = c }

// CasesFromNotes joins disposition notes with their tickets and produces the
// dispatch training/evaluation cases whose ticket day falls in [loDay,
// hiDay]. The feature week is the most recent Saturday at or before the
// ticket, i.e. the line's state while the problem was live.
func CasesFromNotes(ds *data.Dataset, loDay, hiDay int) []DispatchCase {
	dayOf := make(map[int]int, len(ds.Tickets))
	for _, t := range ds.Tickets {
		dayOf[t.ID] = t.Day
	}
	var out []DispatchCase
	for _, n := range ds.Notes {
		tday, ok := dayOf[n.TicketID]
		if !ok || tday < loDay || tday > hiDay {
			continue
		}
		week, ok := data.WeekOf(tday)
		if !ok {
			continue
		}
		out = append(out, DispatchCase{Line: n.Line, Week: week, Disp: faults.DispositionID(n.Disposition)})
	}
	return out
}

// TrainLocator learns the flat and combined models from dispatch cases.
func TrainLocator(ds *data.Dataset, cases []DispatchCase, cfg LocatorConfig) (*TroubleLocator, error) {
	return TrainLocatorCached(ds, cases, cfg, nil)
}

// TrainLocatorCached is TrainLocator threading an optional encode/bin cache
// through the case encode; the trained locator keeps the cache for its
// subsequent Posteriors calls. A nil cache is TrainLocator exactly.
func TrainLocatorCached(ds *data.Dataset, cases []DispatchCase, cfg LocatorConfig, cache *features.Cache) (*TroubleLocator, error) {
	if cfg.Rounds <= 0 || cfg.Bins < 2 || cfg.MinCases < 1 {
		return nil, fmt.Errorf("core: malformed locator config %+v", cfg)
	}
	if len(cases) < 2*cfg.MinCases {
		return nil, fmt.Errorf("core: only %d dispatch cases to train on", len(cases))
	}

	counts := map[faults.DispositionID]int{}
	for _, c := range cases {
		counts[c.Disp]++
	}
	l := &TroubleLocator{
		Cfg:      cfg,
		Priors:   map[faults.DispositionID]float64{},
		flat:     map[faults.DispositionID]*ml.BStump{},
		locModel: map[faults.Location]*ml.BStump{},
		combiner: map[faults.DispositionID]*ml.LogisticFit{},
		cache:    cache,
	}
	total := 0
	for d, n := range counts {
		if n >= cfg.MinCases {
			l.Dispositions = append(l.Dispositions, d)
			total += n
		}
	}
	if len(l.Dispositions) < 2 {
		return nil, fmt.Errorf("core: fewer than 2 dispositions reach MinCases=%d", cfg.MinCases)
	}
	sort.Slice(l.Dispositions, func(i, j int) bool { return l.Dispositions[i] < l.Dispositions[j] })
	for _, d := range l.Dispositions {
		l.Priors[d] = float64(counts[d]) / float64(total)
	}

	// Encode the dispatch cases once.
	enc, err := encodeCases(ds, nil, cases, cfg.HistoryWeeks, cache)
	if err != nil {
		return nil, err
	}
	q, err := ml.FitQuantizer(enc.Cols, cfg.Bins)
	if err != nil {
		return nil, err
	}
	bm, err := q.Transform(enc.Cols)
	if err != nil {
		return nil, err
	}
	l.quant = q
	for _, c := range enc.Cols {
		l.colNames = append(l.colNames, c.Name)
	}

	// One-versus-rest flat model per disposition (fCij) and per major
	// location (fCi·). The dispositions are independent one-vs-rest
	// problems, so each trains on its own worker (the inner stump search
	// stays sequential — the disposition axis carries the parallelism);
	// results land in index-addressed slices and merge in disposition order,
	// so the locator is identical at any worker count.
	flatModels := make([]*ml.BStump, len(l.Dispositions))
	flatErrs := make([]error, len(l.Dispositions))
	parallel.ForEach(len(l.Dispositions), cfg.Workers, func(di int) {
		d := l.Dispositions[di]
		y := make([]bool, len(cases))
		for i, c := range cases {
			y[i] = c.Disp == d
		}
		m, err := ml.TrainBStump(bm, q, y, ml.TrainOptions{Rounds: cfg.Rounds, Workers: 1})
		if err != nil {
			flatErrs[di] = fmt.Errorf("core: flat model for %q: %w", faults.Catalog[d].Name, err)
			return
		}
		if err := m.Calibrate(m.ScoreAllWorkers(bm, 1), y); err != nil {
			flatErrs[di] = err
			return
		}
		flatModels[di] = m
	})
	for _, err := range flatErrs {
		if err != nil {
			return nil, err
		}
	}
	for di, d := range l.Dispositions {
		l.flat[d] = flatModels[di]
	}
	locModels := make([]*ml.BStump, faults.NumLocations)
	locErrs := make([]error, faults.NumLocations)
	parallel.ForEach(int(faults.NumLocations), cfg.Workers, func(li int) {
		loc := faults.Location(li)
		y := make([]bool, len(cases))
		any := false
		for i, c := range cases {
			y[i] = faults.Catalog[c.Disp].Loc == loc
			any = any || y[i]
		}
		if !any {
			return
		}
		m, err := ml.TrainBStump(bm, q, y, ml.TrainOptions{Rounds: cfg.Rounds, Workers: 1})
		if err != nil {
			locErrs[li] = fmt.Errorf("core: location model for %v: %w", loc, err)
			return
		}
		locModels[li] = m
	})
	for _, err := range locErrs {
		if err != nil {
			return nil, err
		}
	}
	for li, m := range locModels {
		if m != nil {
			l.locModel[faults.Location(li)] = m
		}
	}

	// Combined model (Eq. 2): per disposition, logistic regression over
	// [fCij(x), fCi·(x)].
	for _, d := range l.Dispositions {
		locM := l.locModel[faults.Catalog[d].Loc]
		if locM == nil {
			continue
		}
		sd := l.flat[d].ScoreAll(bm)
		sl := locM.ScoreAll(bm)
		x := make([][]float64, len(cases))
		y := make([]bool, len(cases))
		for i := range cases {
			x[i] = []float64{sd[i], sl[i]}
			y[i] = cases[i].Disp == d
		}
		fit, err := ml.LogisticRegression(x, y, 40)
		if err != nil {
			return nil, fmt.Errorf("core: combiner for %q: %w", faults.Catalog[d].Name, err)
		}
		l.combiner[d] = fit
	}
	return l, nil
}

// encodeCases builds the full Table 3 feature set (no products; §6.3 uses
// all line features) for dispatch cases, memoized when a cache is given. A
// nil ix builds the ticket index from ds.
func encodeCases(ds *data.Dataset, ix *data.TicketIndex, cases []DispatchCase, historyWeeks int, cache *features.Cache) (*features.Encoded, error) {
	ex := make([]features.Example, len(cases))
	for i, c := range cases {
		ex[i] = features.Example{Line: c.Line, Week: c.Week}
	}
	return features.EncodeCached(cache, ds, ix, ex, features.Config{HistoryWeeks: historyWeeks, Quadratic: true})
}

// casesMatrix returns the quantized design matrix for dispatch cases,
// memoized (keyed by the cases and the quantizer's content fingerprint) when
// a cache is attached.
func (l *TroubleLocator) casesMatrix(ds *data.Dataset, ix *data.TicketIndex, cases []DispatchCase) (*ml.BinnedMatrix, error) {
	var bmKey string
	if l.cache != nil {
		ex := make([]features.Example, len(cases))
		for i, c := range cases {
			ex[i] = features.Example{Line: c.Line, Week: c.Week}
		}
		bmKey = fmt.Sprintf("bin|loc|%016x|h%d|q%016x",
			features.ExamplesKey(ex), l.Cfg.HistoryWeeks, l.quant.Fingerprint())
		if bm, ok := l.cache.GetBinned(bmKey); ok {
			return bm, nil
		}
	}
	enc, err := encodeCases(ds, ix, cases, l.Cfg.HistoryWeeks, l.cache)
	if err != nil {
		return nil, err
	}
	if len(enc.Cols) != len(l.colNames) {
		return nil, fmt.Errorf("core: locator schema drift: %d cols vs %d", len(enc.Cols), len(l.colNames))
	}
	bm, err := l.quant.Transform(enc.Cols)
	if err != nil {
		return nil, err
	}
	if l.cache != nil {
		l.cache.PutBinned(bmKey, bm)
	}
	return bm, nil
}

// Posteriors returns, for each case, the per-disposition score under the
// chosen model, aligned with l.Dispositions. Basic ignores the line state
// entirely and returns the priors.
func (l *TroubleLocator) Posteriors(ds *data.Dataset, cases []DispatchCase, model LocatorModel) ([][]float64, error) {
	return l.PosteriorsIx(ds, nil, cases, model)
}

// PosteriorsIx is Posteriors with a caller-supplied ticket index, for servers
// that answer many dispatch cases against one dataset snapshot: the index is
// an O(lines) build that would otherwise dominate a one-case request. A nil
// ix builds it from ds.
func (l *TroubleLocator) PosteriorsIx(ds *data.Dataset, ix *data.TicketIndex, cases []DispatchCase, model LocatorModel) ([][]float64, error) {
	nd := len(l.Dispositions)
	out := make([][]float64, len(cases))
	if model == ModelBasic {
		row := make([]float64, nd)
		for j, d := range l.Dispositions {
			row[j] = l.Priors[d]
		}
		for i := range out {
			out[i] = row
		}
		return out, nil
	}

	bm, err := l.casesMatrix(ds, ix, cases)
	if err != nil {
		return nil, err
	}

	// Location scores are shared across dispositions of one location.
	// Scoring runs on the compiled per-bin tables (see ml/compile.go):
	// these ensembles are re-scored once per disposition per experiment,
	// exactly the T-independent batch path the tables exist for.
	locScores := map[faults.Location][]float64{}
	for loc, m := range l.locModel {
		locScores[loc] = m.Compiled().ScoreAll(bm)
	}

	for i := range out {
		out[i] = make([]float64, nd)
	}
	for j, d := range l.Dispositions {
		sd := l.flat[d].Compiled().ScoreAll(bm)
		switch model {
		case ModelFlat:
			for i := range cases {
				out[i][j] = l.flat[d].Probability(sd[i])
			}
		case ModelCombined:
			fit := l.combiner[d]
			sl := locScores[faults.Catalog[d].Loc]
			for i := range cases {
				if fit == nil || sl == nil {
					out[i][j] = l.flat[d].Probability(sd[i])
					continue
				}
				out[i][j] = fit.Predict([]float64{sd[i], sl[i]})
			}
		default:
			return nil, fmt.Errorf("core: unknown locator model %v", model)
		}
	}
	return out, nil
}

// RankOfTruth returns, per case, the 1-based position of the true
// disposition in the model's ranked list — the number of locations a
// technician following the list tests before finding the problem. Cases
// whose disposition was filtered by MinCases yield -1.
func (l *TroubleLocator) RankOfTruth(ds *data.Dataset, cases []DispatchCase, model LocatorModel) ([]int, error) {
	post, err := l.Posteriors(ds, cases, model)
	if err != nil {
		return nil, err
	}
	dispIdx := map[faults.DispositionID]int{}
	for j, d := range l.Dispositions {
		dispIdx[d] = j
	}
	out := make([]int, len(cases))
	for i, c := range cases {
		j, ok := dispIdx[c.Disp]
		if !ok {
			out[i] = -1
			continue
		}
		order := ml.RankDesc(post[i])
		for rank, idx := range order {
			if idx == j {
				out[i] = rank + 1
				break
			}
		}
	}
	return out, nil
}

// ExplainCombined renders the Fig. 9 style description of one disposition's
// combined inference model: the strongest weak learners of the disposition
// classifier f_Cij and of its parent location classifier f_Ci·, and the
// logistic coefficients (γ's of Eq. 2) fusing them. The paper's example is
// the inside-wiring problem at the home network.
func (l *TroubleLocator) ExplainCombined(d faults.DispositionID, topStumps int) (string, error) {
	flat, ok := l.flat[d]
	if !ok {
		return "", fmt.Errorf("core: no model for disposition %d", d)
	}
	loc := faults.Catalog[d].Loc
	locM := l.locModel[loc]
	fit := l.combiner[d]
	var b strings.Builder
	fmt.Fprintf(&b, "combined model for %q at %v (Eq. 2)\n", faults.Catalog[d].Name, loc)
	if fit != nil {
		fmt.Fprintf(&b, "P(adj) = sigmoid(%.3f·f_disp %+.3f·f_loc %+.3f)\n",
			fit.Coef[1], fit.Coef[2], fit.Coef[0])
	} else {
		fmt.Fprintf(&b, "P(adj) = calibrated f_disp (no location model)\n")
	}
	fmt.Fprintf(&b, "\ndisposition classifier f_disp — strongest weak learners:\n")
	for t := 0; t < topStumps && t < len(flat.Stumps); t++ {
		fmt.Fprintf(&b, "  %s\n", flat.Explain(t))
	}
	if locM != nil {
		fmt.Fprintf(&b, "\nlocation classifier f_%v — strongest weak learners:\n", loc)
		for t := 0; t < topStumps && t < len(locM.Stumps); t++ {
			fmt.Fprintf(&b, "  %s\n", locM.Explain(t))
		}
	}
	return b.String(), nil
}

// BasicOrder returns the dispositions in prior order, the list a technician
// without NEVERMIND would follow.
func (l *TroubleLocator) BasicOrder() []faults.DispositionID {
	order := append([]faults.DispositionID(nil), l.Dispositions...)
	sort.SliceStable(order, func(a, b int) bool { return l.Priors[order[a]] > l.Priors[order[b]] })
	return order
}
