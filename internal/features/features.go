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
	"nevermind/internal/parallel"
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

// Encode builds the Table 3 feature columns for the examples: every column
// of AllColumns(cfg), sequentially, with the imputation fallback averaged
// over the examples' weeks.
func Encode(ds *data.Dataset, ix *data.TicketIndex, examples []Example, cfg Config) (*Encoded, error) {
	return AllColumns(cfg).Encode(ds, ix, examples, nil, 1)
}

// colKind says how a base column is computed from an example's current and
// previous imputed records, its history window and its line's attributes.
type colKind uint8

const (
	kindBasic   colKind = iota // cur[f]
	kindDelta                  // cur[f] - prev[f]
	kindTS                     // (cur[f] - history mean) / history sd
	kindRatioDn                // cur[f] / the profile's downstream rate
	kindRatioUp                // cur[f] / the profile's upstream rate
	kindTier                   // 1 when the line's profile is f
	kindTicket                 // days since the line's last ticket
	kindModem                  // share of history weeks with the modem off
)

// baseCol is one non-derived Table 3 column: every column but the
// quadratic and product families.
type baseCol struct {
	name        string
	group       Group
	categorical bool
	kind        colKind
	f           int // basic feature, or profile for kindTier
}

// baseCols lists the base columns in Encode's order; baseIndex maps a name
// to its position; allBase selects every one.
var (
	baseCols  = makeBaseCols()
	baseIndex = func() map[string]int {
		m := make(map[string]int, len(baseCols))
		for i, c := range baseCols {
			m[c.name] = i
		}
		return m
	}()
	allBase = func() []int {
		all := make([]int, len(baseCols))
		for i := range all {
			all[i] = i
		}
		return all
	}()
)

func makeBaseCols() []baseCol {
	var cols []baseCol
	for f := 0; f < data.NumBasicFeatures; f++ {
		cols = append(cols, baseCol{"basic:" + data.BasicFeatureNames[f], GroupBasic, data.CategoricalBasicFeature(f), kindBasic, f})
	}
	for f := 0; f < data.NumBasicFeatures; f++ {
		cols = append(cols, baseCol{"delta:" + data.BasicFeatureNames[f], GroupDelta, false, kindDelta, f})
	}
	for f := 0; f < data.NumBasicFeatures; f++ {
		cols = append(cols, baseCol{"ts:" + data.BasicFeatureNames[f], GroupTS, false, kindTS, f})
	}
	cols = append(cols,
		baseCol{"profile:dnbr_ratio", GroupProfile, false, kindRatioDn, data.FDnBR},
		baseCol{"profile:upbr_ratio", GroupProfile, false, kindRatioUp, data.FUpBR},
		baseCol{"profile:dnmax_ratio", GroupProfile, false, kindRatioDn, data.FDnMaxAttainFBR},
		baseCol{"profile:upmax_ratio", GroupProfile, false, kindRatioUp, data.FUpMaxAttainFBR},
	)
	for p := range data.Profiles {
		cols = append(cols, baseCol{"profile:is_" + data.Profiles[p].Name, GroupProfile, true, kindTier, p})
	}
	return append(cols,
		baseCol{"ticket:days_since_last", GroupTicket, false, kindTicket, 0},
		baseCol{"modem:off_rate", GroupModem, false, kindModem, 0},
	)
}

// encodeBase computes the base columns sel (indices into baseCols,
// ascending) for the examples, with fallback as the imputation vector for
// lines with no usable history (nil: the mean over the examples' weeks, see
// fallbackVector). An example's history sums cover only the ts: features
// sel asks for. Examples are independent, so chunks of them run on
// workers (0 = GOMAXPROCS, 1 = sequential) with identical output at any
// count.
func encodeBase(ds *data.Dataset, ix *data.TicketIndex, examples []Example, cfg Config, sel []int, fallback []float32, workers int) (*Encoded, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("features: no examples")
	}
	for _, ex := range examples {
		if int(ex.Line) < 0 || int(ex.Line) >= ds.NumLines || ex.Week < 0 || ex.Week >= data.Weeks {
			return nil, fmt.Errorf("features: example (%d,%d) out of range", ex.Line, ex.Week)
		}
	}
	if fallback == nil {
		fallback = fallbackVector(ds, examples)
	} else if len(fallback) != data.NumBasicFeatures {
		return nil, fmt.Errorf("features: fallback has %d values, want %d", len(fallback), data.NumBasicFeatures)
	}
	n := len(examples)
	enc := &Encoded{Examples: examples, Cols: make([]ml.Column, len(sel)), Groups: make([]Group, len(sel))}
	// by[k] lists the selected columns of kind k, so an example fills each
	// kind in one straight loop.
	var by [kindModem + 1][]colRef
	for j, ci := range sel {
		c := baseCols[ci]
		vals := make([]float32, n)
		enc.Cols[j] = ml.Column{Name: c.name, Categorical: c.categorical, Values: vals}
		enc.Groups[j] = c.group
		by[c.kind] = append(by[c.kind], colRef{vals, c.f})
	}
	ts := by[kindTS]
	allTS := len(ts) == data.NumBasicFeatures
	needPrev := len(by[kindDelta]) > 0
	needHist := len(ts) > 0 || len(by[kindModem]) > 0
	needProfile := len(by[kindRatioDn]) > 0 || len(by[kindRatioUp]) > 0
	if len(by[kindTicket]) > 0 && ix == nil {
		ix = data.NewTicketIndex(ds)
	}

	parallel.For(n, workers, func(_, start, end int) {
		var cur, prev [data.NumBasicFeatures]float32
		for i := start; i < end; i++ {
			ex := examples[i]
			imputeAt(ds, ex.Line, ex.Week, cfg.HistoryWeeks, fallback, cur[:])
			for _, c := range by[kindBasic] {
				c.vals[i] = cur[c.f]
			}
			if needPrev {
				if ex.Week > 0 {
					imputeAt(ds, ex.Line, ex.Week-1, cfg.HistoryWeeks, fallback, prev[:])
				} else {
					prev = cur
				}
				for _, c := range by[kindDelta] {
					c.vals[i] = cur[c.f] - prev[c.f]
				}
			}

			// Long-term history stats over present records.
			if needHist {
				lo := ex.Week - cfg.HistoryWeeks
				if lo < 0 {
					lo = 0
				}
				var cnt float64
				var sum, sumsq [data.NumBasicFeatures]float64
				missing, histN := 0, 0
				for w := lo; w < ex.Week; w++ {
					histN++
					m := ds.At(ex.Line, w)
					if m.Missing {
						missing++
						continue
					}
					cnt++
					if allTS { // Encode's case: a fixed loop over every feature
						for f := 0; f < data.NumBasicFeatures; f++ {
							v := float64(m.F[f])
							sum[f] += v
							sumsq[f] += v * v
						}
						continue
					}
					for _, c := range ts {
						v := float64(m.F[c.f])
						sum[c.f] += v
						sumsq[c.f] += v * v
					}
				}
				if cnt >= 3 {
					for _, c := range ts {
						mean := sum[c.f] / cnt
						variance := sumsq[c.f]/cnt - mean*mean
						if variance < 1e-6 {
							variance = 1e-6
						}
						c.vals[i] = float32((float64(cur[c.f]) - mean) / math.Sqrt(variance))
					}
				}
				if histN > 0 {
					for _, c := range by[kindModem] {
						c.vals[i] = float32(missing) / float32(histN)
					}
				}
			}

			if needProfile {
				prof := ds.Profile(ex.Line)
				for _, c := range by[kindRatioDn] {
					c.vals[i] = cur[c.f] / float32(prof.DnKbps)
				}
				for _, c := range by[kindRatioUp] {
					c.vals[i] = cur[c.f] / float32(prof.UpKbps)
				}
			}
			for _, c := range by[kindTier] {
				if int(ds.ProfileOf[ex.Line]) == c.f {
					c.vals[i] = 1
				}
			}
			if tk := by[kindTicket]; len(tk) > 0 {
				day := data.SaturdayOf(ex.Week)
				v := float32(400) // sentinel: beyond any in-year gap
				if last, ok := ix.Prev(ex.Line, day); ok {
					v = float32(day - last)
				}
				for _, c := range tk {
					c.vals[i] = v
				}
			}
		}
	})
	return enc, nil
}

// colRef is one selected base column: its values and the basic feature (or
// profile, for kindTier) it reads.
type colRef struct {
	vals []float32
	f    int
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
// examples' weeks: the imputation for lines never measured in the history
// window (per-feature medians would be overkill; the all-lines mean is
// stable and cheap). It costs a pass over every line at each week, so a
// caller scoring one week repeatedly computes it once (WeekFallback) and
// passes it in. Weeks are summed in ascending order, so the float64 sums
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
