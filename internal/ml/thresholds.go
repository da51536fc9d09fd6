package ml

import (
	"fmt"
	"slices"
	"time"

	"nevermind/internal/parallel"
)

// Interval scoring: the serving form of a BStump ensemble. A stump on
// feature f splits f's bins at its Cut, and bin <= Cut holds exactly when
// the raw value v satisfies v < Cuts[f][Cut] (Transform's bin is the count
// of cuts c with !(c > v)). So a feature's score is a step function of v
// with one step per distinct stump cut, and a raw value can be mapped
// straight to its step without quantizing it into one of up to 256 bins.
//
// Bit-identity with the per-bin tables is by construction: every bin inside
// one interval between consecutive stump thresholds receives the same
// sequence of adds during the fold, so the interval's value is the
// CompiledScorer.Tables entry of any bin it spans, and ScoreWorkers sums
// Bias first and then the features ascending, exactly as ScoreAllWorkers
// does. NaN counts every threshold (!(t > NaN) holds), which puts it in the
// top interval, just as Transform's sort.Search puts it in the top bin.

// ThresholdScorer is a BStump ensemble folded into, per feature it reads,
// the thresholds of its distinct stump cuts and one score per interval.
type ThresholdScorer struct {
	// Bias is CompiledScorer.Bias.
	Bias float64
	// Features lists the features the ensemble consults, ascending (as
	// CompiledScorer.Features).
	Features []int
	// Cuts[k] holds the thresholds Quantizer.Cuts[f][Cut] of every distinct
	// stump cut on feature Features[k], ascending.
	Cuts [][]float32
	// Values[k][i] is feature Features[k]'s contribution when its value lies
	// in interval i: the count of thresholds t in Cuts[k] with !(t > v).
	// len(Values[k]) == len(Cuts[k]) + 1.
	Values [][]float64
	// Compiled is the per-bin fold the values were read from; the scorer is
	// stale once the model's Compiled() returns any other pointer.
	Compiled *CompiledScorer
}

// CompileThresholds folds the ensemble, through its per-bin tables
// (m.Compiled()), into interval tables over the raw values q's cuts were
// fitted on. It fails when a stump names a feature q has no cuts for.
func CompileThresholds(m *BStump, q *Quantizer) (*ThresholdScorer, error) {
	c := m.Compiled()
	cutsOf := make(map[int][]int, len(c.Features)) // feature -> distinct stump cuts
	for _, st := range m.Stumps {
		if st.Feature < 0 {
			continue
		}
		if st.Feature >= len(q.Cuts) {
			return nil, fmt.Errorf("ml: stump on feature %d outside the quantizer's %d", st.Feature, len(q.Cuts))
		}
		// A cut at or past the last bin splits no reachable value: every
		// bin Transform can produce is on its low side.
		if int(st.Cut) < len(q.Cuts[st.Feature]) {
			cutsOf[st.Feature] = append(cutsOf[st.Feature], int(st.Cut))
		}
	}
	s := &ThresholdScorer{
		Bias:     c.Bias,
		Features: c.Features,
		Cuts:     make([][]float32, len(c.Features)),
		Values:   make([][]float64, len(c.Features)),
		Compiled: c,
	}
	for k, f := range c.Features {
		cuts := cutsOf[f]
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		tab := c.Tables[k]
		th := make([]float32, len(cuts))
		vals := make([]float64, len(cuts)+1)
		vals[0] = tab[0]
		for i, cut := range cuts {
			th[i] = q.Cuts[f][cut]
			vals[i+1] = tab[cut+1] // the lowest bin above this cut
		}
		s.Cuts[k], s.Values[k] = th, vals
	}
	return s, nil
}

// interval returns the count of thresholds t in the ascending cuts with
// !(t > v): once one threshold exceeds v every later one does, and NaN
// exceeds none.
func interval(cuts []float32, v float32) int {
	i := 0
	for i < len(cuts) && !(cuts[i] > v) {
		i++
	}
	return i
}

// ScoreWorkers scores n examples whose raw values of feature Features[k]
// are cols[k].Values, on the given number of workers (0 = GOMAXPROCS, 1 =
// sequential). Each score equals CompiledScorer.ScoreAllWorkers over the
// quantized columns bit for bit, at any worker count.
func (s *ThresholdScorer) ScoreWorkers(cols []Column, n, workers int) ([]float64, error) {
	if len(cols) != len(s.Features) {
		return nil, fmt.Errorf("ml: interval scorer got %d columns, reads %d", len(cols), len(s.Features))
	}
	for _, col := range cols {
		if len(col.Values) != n {
			return nil, fmt.Errorf("ml: column %q has %d values, want %d", col.Name, len(col.Values), n)
		}
	}
	if scoreObserver.Load() != nil {
		defer observeScore(n, time.Now())
	}
	out := make([]float64, n)
	parallel.For(n, workers, func(_, start, end int) {
		if s.Bias != 0 {
			for i := start; i < end; i++ {
				out[i] = s.Bias
			}
		}
		for k, col := range cols {
			cuts, vals := s.Cuts[k], s.Values[k]
			for i, v := range col.Values[start:end] {
				out[start+i] += vals[interval(cuts, v)]
			}
		}
	})
	return out, nil
}
