// Package features encodes the sparse weekly line-measurement history into
// the learning features of Table 3 (§4.2): per-example columns for the
// current basic measurements, short-term deltas, long-term time-series
// deviations, customer/profile context, and the derived quadratic and
// product features whose explicit encoding the paper credits for the final
// accuracy boost (BStump ignores feature interactions, so covariance must be
// spelled out as extra features).
package features

import (
	"fmt"
	"math"

	"nevermind/internal/data"
	"nevermind/internal/ml"
)

// Example is one prediction instance: a line observed at a measurement week.
// Its features may look at history up to and including Week; its label looks
// at tickets strictly after Week's Saturday.
type Example struct {
	Line data.LineID
	Week int
}

// Group classifies columns by their Table 3 row.
type Group uint8

const (
	GroupBasic   Group = iota // current week's Table 2 features
	GroupDelta                // change vs previous week
	GroupTS                   // standardized deviation vs long-term history
	GroupProfile              // features relative to the subscriber profile
	GroupTicket               // time since the most recent ticket
	GroupModem                // modem-off rate over history
	GroupQuad                 // squares of history+customer features
	GroupProd                 // pairwise products
)

func (g Group) String() string {
	switch g {
	case GroupBasic:
		return "basic"
	case GroupDelta:
		return "delta"
	case GroupTS:
		return "ts"
	case GroupProfile:
		return "profile"
	case GroupTicket:
		return "ticket"
	case GroupModem:
		return "modem"
	case GroupQuad:
		return "quad"
	case GroupProd:
		return "prod"
	default:
		return fmt.Sprintf("Group(%d)", uint8(g))
	}
}

// Config tunes encoding.
type Config struct {
	// HistoryWeeks is the long-term window for time-series and modem
	// features (default 26 — the paper uses the first seven months of the
	// year as history).
	HistoryWeeks int
	// Quadratic adds squares of the continuous history+customer features.
	Quadratic bool
}

func (c Config) defaults() Config {
	if c.HistoryWeeks == 0 {
		c.HistoryWeeks = 26
	}
	return c
}

// Encoded is the example-aligned design matrix, column-major.
type Encoded struct {
	Cols     []ml.Column
	Groups   []Group
	Examples []Example
}

// ColumnIndex returns the index of a named column, or -1.
func (e *Encoded) ColumnIndex(name string) int {
	for i, c := range e.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// IndicesOfGroups returns the column indices belonging to any of the groups.
func (e *Encoded) IndicesOfGroups(groups ...Group) []int {
	want := map[Group]bool{}
	for _, g := range groups {
		want[g] = true
	}
	var out []int
	for i, g := range e.Groups {
		if want[g] {
			out = append(out, i)
		}
	}
	return out
}

// Encode builds the Table 3 feature columns for the examples.
func Encode(ds *data.Dataset, ix *data.TicketIndex, examples []Example, cfg Config) (*Encoded, error) {
	cfg = cfg.defaults()
	enc, err := encodeBase(ds, ix, examples, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Quadratic {
		enc = withQuadratic(enc)
	}
	return enc, nil
}

// encodeBase builds every non-derived column (the quadratic step is split
// out so EncodeCached can share one base encode between quadratic and
// non-quadratic callers).
func encodeBase(ds *data.Dataset, ix *data.TicketIndex, examples []Example, cfg Config) (*Encoded, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("features: no examples")
	}
	for _, ex := range examples {
		if int(ex.Line) < 0 || int(ex.Line) >= ds.NumLines || ex.Week < 0 || ex.Week >= data.Weeks {
			return nil, fmt.Errorf("features: example (%d,%d) out of range", ex.Line, ex.Week)
		}
	}
	if ix == nil {
		ix = data.NewTicketIndex(ds)
	}
	n := len(examples)
	enc := &Encoded{Examples: examples}

	addCol := func(name string, g Group, categorical bool) []float32 {
		v := make([]float32, n)
		enc.Cols = append(enc.Cols, ml.Column{Name: name, Categorical: categorical, Values: v})
		enc.Groups = append(enc.Groups, g)
		return v
	}

	// Allocate columns.
	basic := make([][]float32, data.NumBasicFeatures)
	delta := make([][]float32, data.NumBasicFeatures)
	ts := make([][]float32, data.NumBasicFeatures)
	for f := 0; f < data.NumBasicFeatures; f++ {
		name := data.BasicFeatureNames[f]
		basic[f] = addCol("basic:"+name, GroupBasic, data.CategoricalBasicFeature(f))
	}
	for f := 0; f < data.NumBasicFeatures; f++ {
		delta[f] = addCol("delta:"+data.BasicFeatureNames[f], GroupDelta, false)
	}
	for f := 0; f < data.NumBasicFeatures; f++ {
		ts[f] = addCol("ts:"+data.BasicFeatureNames[f], GroupTS, false)
	}
	profDn := addCol("profile:dnbr_ratio", GroupProfile, false)
	profUp := addCol("profile:upbr_ratio", GroupProfile, false)
	profMaxDn := addCol("profile:dnmax_ratio", GroupProfile, false)
	profMaxUp := addCol("profile:upmax_ratio", GroupProfile, false)
	profTier := make([][]float32, len(data.Profiles))
	for p := range data.Profiles {
		profTier[p] = addCol("profile:is_"+data.Profiles[p].Name, GroupProfile, true)
	}
	ticketDays := addCol("ticket:days_since_last", GroupTicket, false)
	modemOff := addCol("modem:off_rate", GroupModem, false)

	// Fallback values for lines never measured in the window: per-feature
	// medians are overkill; the all-lines mean over the examples' weeks is
	// stable and cheap. Computed lazily from present records.
	fallback := fallbackVector(ds, examples)

	cur := make([]float32, data.NumBasicFeatures)
	prev := make([]float32, data.NumBasicFeatures)
	for i, ex := range examples {
		imputeAt(ds, ex.Line, ex.Week, cfg.HistoryWeeks, fallback, cur)
		if ex.Week > 0 {
			imputeAt(ds, ex.Line, ex.Week-1, cfg.HistoryWeeks, fallback, prev)
		} else {
			copy(prev, cur)
		}
		for f := 0; f < data.NumBasicFeatures; f++ {
			basic[f][i] = cur[f]
			delta[f][i] = cur[f] - prev[f]
		}

		// Long-term history stats over present records.
		lo := ex.Week - cfg.HistoryWeeks
		if lo < 0 {
			lo = 0
		}
		var cnt float64
		var sum, sumsq [data.NumBasicFeatures]float64
		missing := 0
		histN := 0
		for w := lo; w < ex.Week; w++ {
			histN++
			m := ds.At(ex.Line, w)
			if m.Missing {
				missing++
				continue
			}
			cnt++
			for f := 0; f < data.NumBasicFeatures; f++ {
				v := float64(m.F[f])
				sum[f] += v
				sumsq[f] += v * v
			}
		}
		for f := 0; f < data.NumBasicFeatures; f++ {
			if cnt >= 3 {
				mean := sum[f] / cnt
				variance := sumsq[f]/cnt - mean*mean
				if variance < 1e-6 {
					variance = 1e-6
				}
				ts[f][i] = float32((float64(cur[f]) - mean) / math.Sqrt(variance))
			}
		}

		prof := ds.Profile(ex.Line)
		profDn[i] = cur[data.FDnBR] / float32(prof.DnKbps)
		profUp[i] = cur[data.FUpBR] / float32(prof.UpKbps)
		profMaxDn[i] = cur[data.FDnMaxAttainFBR] / float32(prof.DnKbps)
		profMaxUp[i] = cur[data.FUpMaxAttainFBR] / float32(prof.UpKbps)
		profTier[ds.ProfileOf[ex.Line]][i] = 1

		day := data.SaturdayOf(ex.Week)
		if last, ok := ix.Prev(ex.Line, day); ok {
			ticketDays[i] = float32(day - last)
		} else {
			ticketDays[i] = 400 // sentinel: beyond any in-year gap
		}
		if histN > 0 {
			modemOff[i] = float32(missing) / float32(histN)
		}
	}

	return enc, nil
}

// withQuadratic returns a new Encoded extending base with squares of the
// signed deviation columns (delta and time-series). The paper's quadratic
// features "model the variance of each variable": the square of a deviation
// measures its magnitude regardless of direction, which a single threshold
// stump cannot. Squares of the positive-valued basic counters are monotone
// transforms — redundant for stumps — so they would only waste selection
// slots. The base Encoded is left untouched (its column values are shared,
// its headers copied), so a cached base can safely serve both quadratic and
// non-quadratic callers.
func withQuadratic(base *Encoded) *Encoded {
	out := &Encoded{
		Cols:     append(make([]ml.Column, 0, 2*len(base.Cols)), base.Cols...),
		Groups:   append(make([]Group, 0, 2*len(base.Groups)), base.Groups...),
		Examples: base.Examples,
	}
	for ci, col := range base.Cols {
		if col.Categorical {
			continue // the square of a binary indicator is itself
		}
		if g := base.Groups[ci]; g != GroupDelta && g != GroupTS {
			continue
		}
		sq := make([]float32, len(col.Values))
		for i, v := range col.Values {
			sq[i] = v * v
		}
		out.Cols = append(out.Cols, ml.Column{Name: "quad:" + col.Name, Values: sq})
		out.Groups = append(out.Groups, GroupQuad)
	}
	return out
}

// imputeAt fills dst with the line's measurement at week w, carrying the
// most recent present record backward up to histWeeks when the modem was
// off, and falling back to population means for never-seen lines. The
// static plant fields and the state flag always come from the actual record
// — the DSLAM knows them even without modem sync.
func imputeAt(ds *data.Dataset, line data.LineID, week, histWeeks int, fallback []float32, dst []float32) {
	m := ds.At(line, week)
	if !m.Missing {
		copy(dst, m.F[:])
		return
	}
	lo := week - histWeeks
	if lo < 0 {
		lo = 0
	}
	for w := week - 1; w >= lo; w-- {
		prev := ds.At(line, w)
		if !prev.Missing {
			copy(dst, prev.F[:])
			// Keep the current record's own static truth.
			dst[data.FState] = m.F[data.FState]
			dst[data.FBT] = m.F[data.FBT]
			dst[data.FCrosstalk] = m.F[data.FCrosstalk]
			dst[data.FLoopLength] = m.F[data.FLoopLength]
			return
		}
	}
	copy(dst, fallback)
	dst[data.FState] = m.F[data.FState]
	dst[data.FBT] = m.F[data.FBT]
	dst[data.FCrosstalk] = m.F[data.FCrosstalk]
	dst[data.FLoopLength] = m.F[data.FLoopLength]
}

// WeekFallback is the imputation fallback every single-week encode at week
// uses: the mean feature vector over that week's present records, which lines
// with no usable history impute from. A change to any week-w cell can move it
// and with it the encoding of every such line, so a caller that reuses week-w
// encodes across data changes must check that it did not.
func WeekFallback(ds *data.Dataset, week int) []float32 {
	return fallbackVector(ds, []Example{{Week: week}})
}

// fallbackVector is the mean feature vector over the present records of the
// examples' weeks. Weeks are summed in ascending order, so the float64 sums
// (and the encode built on them) do not depend on the examples' order.
func fallbackVector(ds *data.Dataset, examples []Example) []float32 {
	var weeks [data.Weeks]bool
	for _, ex := range examples {
		weeks[ex.Week] = true
	}
	var sum [data.NumBasicFeatures]float64
	var cnt float64
	for w, used := range weeks {
		if !used {
			continue
		}
		for l := 0; l < ds.NumLines; l++ {
			m := ds.At(data.LineID(l), w)
			if m.Missing {
				continue
			}
			cnt++
			for f := 0; f < data.NumBasicFeatures; f++ {
				sum[f] += float64(m.F[f])
			}
		}
	}
	out := make([]float32, data.NumBasicFeatures)
	if cnt == 0 {
		return out
	}
	for f := range out {
		out[f] = float32(sum[f] / cnt)
	}
	return out
}
