package ml

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"nevermind/internal/rng"
)

// specialValues are the float32 edge cases the interval rule must place
// exactly as Transform's sort.Search does: signed zeros, infinities, NaNs
// with assorted payloads and signs, subnormals and the extreme normals.
var specialValues = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc00001),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xffc00000),
	math.Float32frombits(0xffbfffff),
	math.Float32frombits(1), math.Float32frombits(0x807fffff),
	math.Float32frombits(0x00800000), -math.MaxFloat32, math.MaxFloat32,
}

// randomCutSet returns an ascending cut list as FitQuantizer produces one
// (each cut strictly above the previous, no NaN), up to 255 long, drawn
// from mixed magnitudes and the special values.
func randomCutSet(r *rng.RNG) []float32 {
	k := r.Intn(256)
	if r.Bool(0.5) {
		k = r.Intn(9)
	}
	raw := make([]float32, k)
	for i := range raw {
		switch r.Intn(4) {
		case 0:
			raw[i] = specialValues[r.Intn(len(specialValues))]
		case 1:
			raw[i] = float32(r.Intn(21) - 10)
		default:
			raw[i] = float32(r.Normal(0, math.Pow(10, float64(r.Intn(7)-3))))
		}
	}
	slices.SortFunc(raw, func(a, b float32) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	var cuts []float32
	for _, v := range raw {
		if v != v || (len(cuts) > 0 && !(v > cuts[len(cuts)-1])) {
			continue
		}
		cuts = append(cuts, v)
	}
	return cuts
}

// probeValues returns, for one cut set, every cut, the float32 one ULP
// either side of it, and the special values.
func probeValues(cuts []float32) []float32 {
	vals := append([]float32(nil), specialValues...)
	for _, c := range cuts {
		vals = append(vals, c,
			math.Nextafter32(c, float32(math.Inf(-1))),
			math.Nextafter32(c, float32(math.Inf(1))))
	}
	return vals
}

// checkThresholdScorer scores cols through the interval scorer and through
// Transform plus the per-bin tables, at workers 1 and 2, and fails on the
// first score whose bits differ.
func checkThresholdScorer(t *testing.T, m *BStump, q *Quantizer, cols []Column) {
	t.Helper()
	ts, err := CompileThresholds(m, q)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := q.TransformWorkers(cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	used := make([]Column, len(ts.Features))
	for k, f := range ts.Features {
		used[k] = cols[f]
		if len(ts.Values[k]) != len(ts.Cuts[k])+1 {
			t.Fatalf("feature %d: %d values for %d thresholds", f, len(ts.Values[k]), len(ts.Cuts[k]))
		}
	}
	for _, workers := range []int{1, 2} {
		want := m.Compiled().ScoreAllWorkers(bm, workers)
		got, err := ts.ScoreWorkers(used, bm.N, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				var row []float32
				for _, f := range ts.Features {
					row = append(row, cols[f].Values[i])
				}
				t.Fatalf("workers %d row %d (values %v): interval score %v (%#x), binned %v (%#x)",
					workers, i, row, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// randomModel builds a random ensemble over nFeatures random cut sets,
// with stump cuts drawn mostly inside each feature's bins (and some past
// its last bin, which split nothing reachable).
func randomModel(r *rng.RNG, nFeatures int) (*BStump, *Quantizer) {
	q := &Quantizer{Cuts: make([][]float32, nFeatures), Names: make([]string, nFeatures)}
	for f := range q.Cuts {
		q.Cuts[f] = randomCutSet(r)
	}
	m := randomEnsemble(r, nFeatures, 1+r.Intn(120))
	for i := range m.Stumps {
		st := &m.Stumps[i]
		if nc := len(q.Cuts[max(st.Feature, 0)]); st.Feature >= 0 && nc > 0 && r.Bool(0.9) {
			st.Cut = uint8(r.Intn(nc))
		}
	}
	return m, q
}

// TestThresholdScorerMatchesCompiled is the differential property: on
// random ensembles over random cut sets, scoring raw values through the
// interval tables equals Transform plus the per-bin tables bit for bit,
// for values on every cut, one ULP either side, the special values and
// random ones.
func TestThresholdScorerMatchesCompiled(t *testing.T) {
	r := rng.New(20)
	for trial := 0; trial < 60; trial++ {
		nFeatures := 1 + r.Intn(10)
		m, q := randomModel(r, nFeatures)
		n := 50 + r.Intn(400)
		cols := make([]Column, nFeatures)
		for f := range cols {
			pool := probeValues(q.Cuts[f])
			vals := make([]float32, n)
			for i := range vals {
				if r.Bool(0.8) {
					vals[i] = pool[r.Intn(len(pool))]
				} else {
					vals[i] = float32(r.Normal(0, 100))
				}
			}
			cols[f] = Column{Values: vals}
		}
		checkThresholdScorer(t, m, q, cols)
	}
}

// FuzzThresholdScore feeds arbitrary float32 bit patterns through a seeded
// random ensemble: the interval scorer must equal the binned path bit for
// bit whatever the values.
func FuzzThresholdScore(f *testing.F) {
	seedBits := func(vals ...float32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	f.Add(uint64(1), seedBits(specialValues...))
	f.Add(uint64(2), seedBits(0.5, -0.5, 1, 2, 3))
	f.Add(uint64(3), []byte{0x01, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		r := rng.New(seed)
		nFeatures := 1 + r.Intn(4)
		m, q := randomModel(r, nFeatures)
		var vals []float32
		for i := 0; i+4 <= len(raw); i += 4 {
			vals = append(vals, math.Float32frombits(binary.LittleEndian.Uint32(raw[i:])))
		}
		for _, cuts := range q.Cuts {
			vals = append(vals, probeValues(cuts)...)
		}
		// Column f reads the values rotated by f, so every feature sees
		// every value.
		cols := make([]Column, nFeatures)
		for f := range cols {
			rot := make([]float32, len(vals))
			for i := range rot {
				rot[i] = vals[(i+f)%len(vals)]
			}
			cols[f] = Column{Values: rot}
		}
		checkThresholdScorer(t, m, q, cols)
	})
}

// TestExplainStatesStrictInequality pins the stump rule's direction in the
// raw value space: bin <= Cut holds exactly when v < Threshold, so a value
// equal to a stump's Threshold scores SHigh — through Transform plus the
// per-bin tables and through the interval tables alike — and Explain says
// "<".
func TestExplainStatesStrictInequality(t *testing.T) {
	cols, y := synthProblem(2000, 9)
	m, q, _ := trainOn(t, cols, y, 30)
	for i, st := range m.Stumps {
		s := m.Explain(i)
		if st.Feature < 0 {
			continue
		}
		if !strings.Contains(s, " < ") || strings.Contains(s, "<=") {
			t.Fatalf("Explain(%d) = %q, want a strict < rule", i, s)
		}
		if int(st.Cut) >= len(q.Cuts[st.Feature]) {
			t.Fatalf("stump %d: cut %d past feature %d's %d cuts", i, st.Cut, st.Feature, len(q.Cuts[st.Feature]))
		}
		one := &BStump{Stumps: []Stump{st}}
		probe := make([]Column, len(cols))
		for f := range probe {
			probe[f] = Column{Values: []float32{0, 0}}
		}
		probe[st.Feature].Values = []float32{st.Threshold, math.Nextafter32(st.Threshold, float32(math.Inf(-1)))}
		bm, err := q.Transform(probe)
		if err != nil {
			t.Fatal(err)
		}
		binned := one.Compiled().ScoreAll(bm)
		ts, err := CompileThresholds(one, q)
		if err != nil {
			t.Fatal(err)
		}
		interval, err := ts.ScoreWorkers([]Column{probe[st.Feature]}, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range [][]float64{binned, interval} {
			if got[0] != st.SHigh || got[1] != st.SLow {
				t.Fatalf("stump %d (%s): value == Threshold scores %v, one ULP below %v; want SHigh %v, SLow %v",
					i, s, got[0], got[1], st.SHigh, st.SLow)
			}
		}
	}
}
