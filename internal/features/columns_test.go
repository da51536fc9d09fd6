package features

import (
	"math"
	"strings"
	"testing"

	"nevermind/internal/data"
)

// TestColumnSetMatchesEncode pins the subset encode to the full one: every
// requested column — base, quadratic, and products over either — equals
// the same-named column of Encode (plus ProductColumns) bit for bit, in the
// order asked, at any worker count and whether the week's fallback is
// passed in or computed.
func TestColumnSetMatchesEncode(t *testing.T) {
	ds := testDataset(t)
	cfg := Config{Quadratic: true}
	examples := ExamplesForWeeks(ds, []int{0, 9, 40})
	full, err := Encode(ds, nil, examples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"ts:upnmr", "basic:state", "quad:delta:dnbr", "ticket:days_since_last",
		"prod:basic:dnbr*quad:ts:upnmr", "profile:is_" + data.Profiles[1].Name,
		"prod:basic:bt*basic:state", "modem:off_rate", "profile:upmax_ratio", "ts:upnmr",
	}
	want := func(name string) ([]float32, bool) {
		if body, ok := strings.CutPrefix(name, "prod:"); ok {
			a, b, _ := strings.Cut(body, "*")
			cols, err := ProductColumns(full, []Pair{{full.ColumnIndex(a), full.ColumnIndex(b)}})
			if err != nil {
				t.Fatal(err)
			}
			return cols[0].Values, cols[0].Categorical
		}
		c := full.Cols[full.ColumnIndex(name)]
		return c.Values, c.Categorical
	}
	cs, err := NewColumnSet(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		got, err := cs.Encode(ds, nil, examples, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cols) != len(names) {
			t.Fatalf("workers %d: %d columns for %d names", workers, len(got.Cols), len(names))
		}
		for j, name := range names {
			vals, categorical := want(name)
			col := got.Cols[j]
			if col.Name != name || col.Categorical != categorical {
				t.Fatalf("column %d is %q (categorical %v), want %q (%v)", j, col.Name, col.Categorical, name, categorical)
			}
			for i := range vals {
				if math.Float32bits(col.Values[i]) != math.Float32bits(vals[i]) {
					t.Fatalf("workers %d, %s, example %+v: %v, Encode %v", workers, name, examples[i], col.Values[i], vals[i])
				}
			}
		}
	}

	// A single-week encode with the week's fallback passed in is the one
	// that computes it.
	week := ExamplesForWeeks(ds, []int{40})
	computed, err := cs.Encode(ds, nil, week, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	passed, err := cs.Encode(ds, nil, week, WeekFallback(ds, 40), 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := range names {
		for i := range week {
			if math.Float32bits(computed.Cols[j].Values[i]) != math.Float32bits(passed.Cols[j].Values[i]) {
				t.Fatalf("%s, line %d: fallback passed in gives %v, computed %v", names[j], week[i].Line,
					passed.Cols[j].Values[i], computed.Cols[j].Values[i])
			}
		}
	}

	for _, bad := range [][]string{{"basic:nope"}, {"quad:basic:dnbr"}, {"prod:basic:dnbr*nope"}, {"prod:basic:dnbr"}} {
		if _, err := NewColumnSet(cfg, bad); err == nil {
			t.Fatalf("NewColumnSet accepted %q", bad)
		}
	}
	if _, err := NewColumnSet(Config{}, []string{"quad:delta:dnbr"}); err == nil {
		t.Fatal("NewColumnSet accepted a quadratic column without Quadratic")
	}
}
