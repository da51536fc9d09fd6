package data

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestMeasurementsCSVRoundTrip(t *testing.T) {
	d := tinyDataset()
	// Give a couple of records distinguishing values and a missing flag.
	m := *d.At(1, 5)
	m.F[FDnNMR] = 7.25
	d.Grid.SetCOW(nil, 1, 5, m)
	m = *d.At(2, 10)
	m.Missing = true
	d.Grid.SetCOW(nil, 2, 10, m)

	var buf bytes.Buffer
	if err := d.WriteMeasurementsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	grid, err := ReadMeasurementsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumLines != d.NumLines {
		t.Fatalf("inferred %d lines, want %d", grid.NumLines, d.NumLines)
	}
	if err := grid.Validate(d.NumLines); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < Weeks; w++ {
		for l := LineID(0); int(l) < d.NumLines; l++ {
			if *grid.At(l, w) != *d.At(l, w) {
				t.Fatalf("record (%d,%d) differs after round trip: %+v vs %+v", l, w, *grid.At(l, w), *d.At(l, w))
			}
		}
	}
}

func TestTicketsCSVRoundTrip(t *testing.T) {
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.WriteTicketsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	tickets, notes, err := ReadTicketsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tickets) != len(d.Tickets) {
		t.Fatalf("%d tickets, want %d", len(tickets), len(d.Tickets))
	}
	for i := range tickets {
		if tickets[i] != d.Tickets[i] {
			t.Fatalf("ticket %d differs: %+v vs %+v", i, tickets[i], d.Tickets[i])
		}
	}
	if len(notes) != len(d.Notes) {
		t.Fatalf("%d notes, want %d", len(notes), len(d.Notes))
	}
	for i := range notes {
		if notes[i] != d.Notes[i] {
			t.Fatalf("note %d differs: %+v vs %+v", i, notes[i], d.Notes[i])
		}
	}
}

func TestReadMeasurementsCSVFillsAbsentRowsAsMissing(t *testing.T) {
	// A file with a single present record: everything else must be a
	// Missing placeholder.
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.WriteMeasurementsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	one := strings.Join(lines[:2], "") // header + first record
	grid, err := ReadMeasurementsCSV(strings.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumLines != 1 {
		t.Fatalf("inferred %d lines from a single line-0 row", grid.NumLines)
	}
	present := 0
	for w := 0; w < Weeks; w++ {
		if !grid.At(0, w).Missing {
			present++
		}
	}
	if present != 1 {
		t.Fatalf("%d present records, want 1", present)
	}
}

func TestReadMeasurementsCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"no columns":  "a,b,c\n1,2,3\n",
		"bad line id": "line,week,missing," + strings.Join(BasicFeatureNames[:], ",") + "\nx,0,false" + strings.Repeat(",0", NumBasicFeatures) + "\n",
		"bad week":    "line,week,missing," + strings.Join(BasicFeatureNames[:], ",") + "\n0,99,false" + strings.Repeat(",0", NumBasicFeatures) + "\n",
		"no rows":     "line,week,missing," + strings.Join(BasicFeatureNames[:], ",") + "\n",
		// Ids past int32 used to wrap into another line (2147483648 became
		// line -2147483648) and size the grid from the unwrapped value.
		"line past int32":  measurementRow("2147483648"),
		"line past uint32": measurementRow("4294967297"),
	}
	for name, csv := range cases {
		if _, err := ReadMeasurementsCSV(strings.NewReader(csv)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestReadTicketsCSVErrors(t *testing.T) {
	header := "ticket,line,day,date,category,disposition,dispatch_day,tests_run\n"
	cases := map[string]string{
		"empty":        "",
		"bad category": header + "0,1,5,2009-01-06,unknown,,,\n",
		"bad day":      header + "0,1,999,x,billing,,,\n",
		"bad disp":     header + "0,1,5,x,customer-edge,zzz,6,1\n",
		// Ids past int32 used to wrap: 4294967297 came back as line 1.
		"line past int32":  header + "0,2147483648,5,x,billing,,,\n",
		"line past uint32": header + "0,4294967297,5,x,billing,,,\n",
	}
	for name, csv := range cases {
		if _, _, err := ReadTicketsCSV(strings.NewReader(csv)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// measurementRow is a one-row measurement CSV for line id.
func measurementRow(id string) string {
	return "line,week,missing," + strings.Join(BasicFeatureNames[:], ",") + "\n" +
		id + ",0,false" + strings.Repeat(",0", NumBasicFeatures) + "\n"
}

// A grid with cells no record wrote exports every cell as a dense row at its
// own line and week: an unwritten cell is a Missing row of zeros, as it was
// when the grid stamped every cell.
func TestMeasurementsCSVExportsUnwrittenCells(t *testing.T) {
	header := "line,week,missing," + strings.Join(BasicFeatureNames[:], ",") + "\n"
	grid, err := ReadMeasurementsCSV(strings.NewReader(header + "1,5,false" + strings.Repeat(",2.5", NumBasicFeatures) + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := &Dataset{NumLines: grid.NumLines, Grid: grid}
	var buf bytes.Buffer
	if err := d.WriteMeasurementsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(rows) != 1+Weeks*2 {
		t.Fatalf("export has %d rows, want %d", len(rows), 1+Weeks*2)
	}
	for w, i := 0, 1; w < Weeks; w++ {
		for l := 0; l < 2; l++ {
			want := fmt.Sprintf("%d,%d,%s,true%s", l, w, DateString(SaturdayOf(w)), strings.Repeat(",0", NumBasicFeatures))
			if l == 1 && w == 5 {
				want = fmt.Sprintf("1,5,%s,false%s", DateString(SaturdayOf(5)), strings.Repeat(",2.5", NumBasicFeatures))
			}
			if rows[i] != want {
				t.Fatalf("row %d = %q, want %q", i, rows[i], want)
			}
			i++
		}
	}
}
