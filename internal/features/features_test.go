package features

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nevermind/internal/data"
	"nevermind/internal/ml"
	"nevermind/internal/rng"
	"nevermind/internal/sim"
)

var cached *sim.Result

func testDataset(t *testing.T) *data.Dataset {
	t.Helper()
	if cached == nil {
		res, err := sim.Run(sim.DefaultConfig(1200, 3))
		if err != nil {
			t.Fatal(err)
		}
		cached = res
	}
	return cached.Dataset
}

func encodeWeeks(t *testing.T, ds *data.Dataset, weeks []int, cfg Config) *Encoded {
	t.Helper()
	ix := data.NewTicketIndex(ds)
	enc, err := Encode(ds, ix, ExamplesForWeeks(ds, weeks), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestEncodeShape(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{30, 31}, Config{})
	wantRows := 2 * ds.NumLines
	if len(enc.Examples) != wantRows {
		t.Fatalf("%d examples, want %d", len(enc.Examples), wantRows)
	}
	// 25 basic + 25 delta + 25 ts + 4 ratios + 4 tier indicators + ticket + modem.
	want := 25 + 25 + 25 + 4 + len(data.Profiles) + 1 + 1
	if len(enc.Cols) != want {
		t.Fatalf("%d columns, want %d", len(enc.Cols), want)
	}
	for _, c := range enc.Cols {
		if len(c.Values) != wantRows {
			t.Fatalf("column %q has %d values", c.Name, len(c.Values))
		}
	}
}

func TestEncodeQuadraticColumns(t *testing.T) {
	ds := testDataset(t)
	plain := encodeWeeks(t, ds, []int{30}, Config{})
	quad := encodeWeeks(t, ds, []int{30}, Config{Quadratic: true})
	if len(quad.Cols) <= len(plain.Cols) {
		t.Fatal("quadratic encoding added no columns")
	}
	// Every quad column must be the square of its base.
	for i, g := range quad.Groups {
		if g != GroupQuad {
			continue
		}
		base := strings.TrimPrefix(quad.Cols[i].Name, "quad:")
		bi := quad.ColumnIndex(base)
		if bi < 0 {
			t.Fatalf("quad column %q has no base", quad.Cols[i].Name)
		}
		for r := 0; r < len(quad.Examples); r += 97 {
			want := quad.Cols[bi].Values[r] * quad.Cols[bi].Values[r]
			if math.Abs(float64(quad.Cols[i].Values[r]-want)) > 1e-6 {
				t.Fatalf("%q row %d = %v, want %v", quad.Cols[i].Name, r, quad.Cols[i].Values[r], want)
			}
		}
	}
	// No squares of categorical indicators.
	for i, g := range quad.Groups {
		if g == GroupQuad && strings.Contains(quad.Cols[i].Name, "is_") {
			t.Fatalf("square of indicator column %q", quad.Cols[i].Name)
		}
	}
}

func TestBasicMatchesMeasurementWhenPresent(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{40}, Config{})
	di := enc.ColumnIndex("basic:dnbr")
	for i, ex := range enc.Examples {
		m := ds.At(ex.Line, ex.Week)
		if m.Missing {
			continue
		}
		if enc.Cols[di].Values[i] != m.F[data.FDnBR] {
			t.Fatalf("basic:dnbr row %d = %v, measurement %v", i, enc.Cols[di].Values[i], m.F[data.FDnBR])
		}
	}
}

func TestImputationCarriesForward(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{40}, Config{})
	di := enc.ColumnIndex("basic:dnbr")
	si := enc.ColumnIndex("basic:state")
	for i, ex := range enc.Examples {
		m := ds.At(ex.Line, ex.Week)
		if !m.Missing {
			continue
		}
		// State reflects the actual (off) test.
		if enc.Cols[si].Values[i] != 0 {
			t.Fatalf("missing record row %d has state %v", i, enc.Cols[si].Values[i])
		}
		// dnbr must be imputed to something plausible, not zero.
		if enc.Cols[di].Values[i] <= 0 {
			t.Fatalf("missing record row %d imputed dnbr %v", i, enc.Cols[di].Values[i])
		}
	}
}

func TestDeltaIsDifference(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{41}, Config{})
	b := enc.ColumnIndex("basic:dnnmr")
	d := enc.ColumnIndex("delta:dnnmr")
	for i, ex := range enc.Examples {
		cur := ds.At(ex.Line, 41)
		prev := ds.At(ex.Line, 40)
		if cur.Missing || prev.Missing {
			continue
		}
		want := cur.F[data.FDnNMR] - prev.F[data.FDnNMR]
		if math.Abs(float64(enc.Cols[d].Values[i]-want)) > 1e-5 {
			t.Fatalf("delta row %d = %v, want %v", i, enc.Cols[d].Values[i], want)
		}
		_ = b
	}
}

func TestDeltaAtWeekZeroIsZero(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{0}, Config{})
	for ci, g := range enc.Groups {
		if g != GroupDelta {
			continue
		}
		for i, v := range enc.Cols[ci].Values {
			if v != 0 {
				t.Fatalf("week-0 delta %q row %d = %v", enc.Cols[ci].Name, i, v)
			}
		}
	}
}

func TestTimeSeriesStandardization(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{45}, Config{})
	ci := enc.ColumnIndex("ts:dnnmr")
	var sum, n float64
	for _, v := range enc.Cols[ci].Values {
		sum += float64(v)
		n++
	}
	mean := sum / n
	// Mostly-healthy lines: standardized deviation should center near 0.
	if math.Abs(mean) > 0.5 {
		t.Fatalf("ts:dnnmr mean %v, want near 0", mean)
	}
}

func TestProfileRatioNearOneForHealthySync(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{30}, Config{})
	ci := enc.ColumnIndex("profile:dnbr_ratio")
	atCap := 0
	for i, ex := range enc.Examples {
		m := ds.At(ex.Line, ex.Week)
		if m.Missing {
			continue
		}
		v := float64(enc.Cols[ci].Values[i])
		if v > 1.01 {
			t.Fatalf("line synced above profile: ratio %v", v)
		}
		if v > 0.99 {
			atCap++
		}
	}
	if atCap == 0 {
		t.Fatal("no line syncs at its profile cap; ratios look wrong")
	}
}

func TestTierIndicatorsOneHot(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{30}, Config{})
	var tierIdx []int
	for i, c := range enc.Cols {
		if strings.HasPrefix(c.Name, "profile:is_") {
			tierIdx = append(tierIdx, i)
		}
	}
	if len(tierIdx) != len(data.Profiles) {
		t.Fatalf("%d tier indicators", len(tierIdx))
	}
	for r := range enc.Examples {
		sum := float32(0)
		for _, ci := range tierIdx {
			sum += enc.Cols[ci].Values[r]
		}
		if sum != 1 {
			t.Fatalf("row %d tier indicators sum to %v", r, sum)
		}
	}
}

func TestTicketRecencyFeature(t *testing.T) {
	ds := testDataset(t)
	ix := data.NewTicketIndex(ds)
	enc := encodeWeeks(t, ds, []int{48}, Config{})
	ci := enc.ColumnIndex("ticket:days_since_last")
	day := data.SaturdayOf(48)
	for i, ex := range enc.Examples {
		v := enc.Cols[ci].Values[i]
		if last, ok := ix.Prev(ex.Line, day); ok {
			if int(v) != day-last {
				t.Fatalf("row %d days-since = %v, want %d", i, v, day-last)
			}
		} else if v != 400 {
			t.Fatalf("row %d sentinel = %v", i, v)
		}
	}
}

func TestModemOffRateInUnitInterval(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{40}, Config{})
	ci := enc.ColumnIndex("modem:off_rate")
	nonzero := false
	for _, v := range enc.Cols[ci].Values {
		if v < 0 || v > 1 {
			t.Fatalf("off_rate %v", v)
		}
		if v > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("no line ever had the modem off; unrealistic")
	}
}

func TestLabelsMatchTicketIndex(t *testing.T) {
	ds := testDataset(t)
	ix := data.NewTicketIndex(ds)
	ex := ExamplesForWeeks(ds, []int{35})
	y := Labels(ix, ex, 28)
	pos := 0
	for i, e := range ex {
		want := ix.Within(e.Line, data.SaturdayOf(35), 28)
		if y[i] != want {
			t.Fatalf("label %d = %v, want %v", i, y[i], want)
		}
		if y[i] {
			pos++
		}
	}
	if pos == 0 {
		t.Fatal("no positive labels at all")
	}
}

func TestProductColumns(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{30}, Config{})
	a := enc.ColumnIndex("basic:dnnmr")
	b := enc.ColumnIndex("basic:dncvcnt1")
	cols, err := ProductColumns(enc, []Pair{{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 {
		t.Fatalf("%d product columns", len(cols))
	}
	for r := 0; r < len(enc.Examples); r += 53 {
		want := enc.Cols[a].Values[r] * enc.Cols[b].Values[r]
		if cols[0].Values[r] != want {
			t.Fatalf("product row %d = %v, want %v", r, cols[0].Values[r], want)
		}
	}
	if !strings.Contains(cols[0].Name, "dnnmr") || !strings.Contains(cols[0].Name, "dncvcnt1") {
		t.Fatalf("product name %q", cols[0].Name)
	}
	if _, err := ProductColumns(enc, []Pair{{-1, 2}}); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
}

func TestAllPairs(t *testing.T) {
	pairs := AllPairs([]int{1, 5, 9})
	if len(pairs) != 3 {
		t.Fatalf("3 choose 2 = 3, got %d", len(pairs))
	}
	if pairs[0] != (Pair{1, 5}) || pairs[2] != (Pair{5, 9}) {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestSubsetAndAppend(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{30}, Config{})
	sub, err := enc.Subset([]int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Cols) != 2 || sub.Cols[0].Name != enc.Cols[0].Name {
		t.Fatal("subset mangled columns")
	}
	if _, err := enc.Subset([]int{999}); err == nil {
		t.Fatal("bad subset index accepted")
	}

	extra := []ml.Column{{Name: "x", Values: make([]float32, len(enc.Examples))}}
	if err := enc.AppendColumns(extra, GroupProd); err != nil {
		t.Fatal(err)
	}
	if enc.Cols[len(enc.Cols)-1].Name != "x" {
		t.Fatal("append lost the column")
	}
	bad := []ml.Column{{Name: "y", Values: []float32{1}}}
	if err := enc.AppendColumns(bad, GroupProd); err == nil {
		t.Fatal("ragged append accepted")
	}
}

func TestSubsetRows(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{30}, Config{})
	rows := []int{0, 10, 20}
	sub, err := enc.SubsetRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Examples) != 3 {
		t.Fatalf("%d rows", len(sub.Examples))
	}
	for ci := range sub.Cols {
		for ri, r := range rows {
			if sub.Cols[ci].Values[ri] != enc.Cols[ci].Values[r] {
				t.Fatalf("row subset mismatch at col %d row %d", ci, ri)
			}
		}
	}
	if _, err := enc.SubsetRows([]int{-1}); err == nil {
		t.Fatal("bad row accepted")
	}
}

func TestEncodeValidatesExamples(t *testing.T) {
	ds := testDataset(t)
	ix := data.NewTicketIndex(ds)
	if _, err := Encode(ds, ix, nil, Config{}); err == nil {
		t.Fatal("no examples accepted")
	}
	if _, err := Encode(ds, ix, []Example{{Line: -1, Week: 0}}, Config{}); err == nil {
		t.Fatal("bad line accepted")
	}
	if _, err := Encode(ds, ix, []Example{{Line: 0, Week: 99}}, Config{}); err == nil {
		t.Fatal("bad week accepted")
	}
}

func TestIndicesOfGroups(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{30}, Config{Quadratic: true})
	hist := enc.IndicesOfGroups(GroupBasic, GroupDelta, GroupTS)
	if len(hist) != 75 {
		t.Fatalf("history groups have %d columns", len(hist))
	}
	cust := enc.IndicesOfGroups(GroupProfile, GroupTicket, GroupModem)
	if len(cust) != 4+len(data.Profiles)+2 {
		t.Fatalf("customer groups have %d columns", len(cust))
	}
	for _, i := range hist {
		if enc.Groups[i] == GroupQuad {
			t.Fatal("group filter leaked quad columns")
		}
	}
}

func TestWeekRange(t *testing.T) {
	ws := WeekRange(3, 6)
	if len(ws) != 4 || ws[0] != 3 || ws[3] != 6 {
		t.Fatalf("WeekRange = %v", ws)
	}
}

// Property: encoding is deterministic and produces finite values for
// arbitrary example subsets.
func TestEncodeDeterministicProperty(t *testing.T) {
	ds := testDataset(t)
	ix := data.NewTicketIndex(ds)
	err := quick.Check(func(seed uint64, wRaw uint8) bool {
		week := int(wRaw) % data.Weeks
		r := rng.New(seed)
		var ex []Example
		for i := 0; i < 40; i++ {
			ex = append(ex, Example{Line: data.LineID(r.Intn(ds.NumLines)), Week: week})
		}
		a, err := Encode(ds, ix, ex, Config{Quadratic: true})
		if err != nil {
			return false
		}
		b, err := Encode(ds, ix, ex, Config{Quadratic: true})
		if err != nil {
			return false
		}
		for ci := range a.Cols {
			for ri := range a.Cols[ci].Values {
				va, vb := a.Cols[ci].Values[ri], b.Cols[ci].Values[ri]
				if va != vb {
					return false
				}
				if math.IsNaN(float64(va)) || math.IsInf(float64(va), 0) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

// The imputation fallback of a multi-week encode sums its weeks in ascending
// order, whatever order the examples name them in. The crafted values make
// float64 addition order visible: weeks 10, 11, 12 in order sum to 0, while
// two of the six orders (the 1 added after the large values cancel) give 1.
func TestFallbackSumsWeeksInOrder(t *testing.T) {
	ds := &data.Dataset{NumLines: 1, Measurements: make([]data.Measurement, data.Weeks)}
	for w, v := range map[int]float32{10: 1e17, 11: 1, 12: -1e17} {
		ds.At(0, w).F[0] = v
	}
	for _, weeks := range [][]int{{10, 11, 12}, {12, 10, 11}, {11, 12, 10}} {
		ex := make([]Example, len(weeks))
		for i, w := range weeks {
			ex[i] = Example{Week: w}
		}
		for i := 0; i < 200; i++ {
			if got := fallbackVector(ds, ex)[0]; got != 0 {
				t.Fatalf("weeks %v call %d: fallback F[0] = %g, want 0 (ascending-week sum)", weeks, i, got)
			}
		}
	}
}

// Property: group labels partition the columns and every column belongs to
// a named group.
func TestGroupsPartitionColumns(t *testing.T) {
	ds := testDataset(t)
	enc := encodeWeeks(t, ds, []int{20}, Config{Quadratic: true})
	if len(enc.Groups) != len(enc.Cols) {
		t.Fatal("groups not aligned with columns")
	}
	all := enc.IndicesOfGroups(GroupBasic, GroupDelta, GroupTS, GroupProfile,
		GroupTicket, GroupModem, GroupQuad, GroupProd)
	if len(all) != len(enc.Cols) {
		t.Fatalf("groups cover %d of %d columns", len(all), len(enc.Cols))
	}
	for g := GroupBasic; g <= GroupProd; g++ {
		if g.String() == "" {
			t.Fatal("unnamed group")
		}
	}
	if Group(99).String() != "Group(99)" {
		t.Fatal("unknown group string")
	}
}

// The time-series feature must fire on a genuine regime change: inject a
// synthetic collapse into a healthy line's measurements and check the
// z-score reacts.
func TestTimeSeriesDetectsRegimeChange(t *testing.T) {
	res := cached
	ds := res.Dataset
	// Copy the dataset's grid so the shared fixture is not polluted.
	mod := *ds
	mod.Measurements = append([]data.Measurement(nil), ds.Measurements...)
	line := data.LineID(7)
	week := 40
	m := &mod.Measurements[week*mod.NumLines+int(line)]
	if m.Missing {
		m.Missing = false
		m.F[data.FState] = 1
	}
	m.F[data.FDnNMR] = -5 // collapse vs its own history
	ix := data.NewTicketIndex(&mod)
	enc, err := Encode(&mod, ix, []Example{{Line: line, Week: week}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	z := enc.Cols[enc.ColumnIndex("ts:dnnmr")].Values[0]
	if z > -2 {
		t.Fatalf("ts:dnnmr = %v after a collapse; want strongly negative", z)
	}
}
