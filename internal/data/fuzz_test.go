package data

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzzing for the CSV importers: whatever bytes arrive, the parsers must
// return a clean error or a structurally sound result — never panic, never
// emit out-of-range records.

func FuzzReadMeasurementsCSV(f *testing.F) {
	// Seed with a real export and mutations of it.
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.WriteMeasurementsCSV(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(strings.Replace(valid, "false", "maybe", 1))
	f.Add("line,week,missing\n0,0,false\n")
	f.Add("")
	f.Add("line,week,missing," + strings.Join(BasicFeatureNames[:], ",") + "\n-1,0,false" + strings.Repeat(",0", NumBasicFeatures))
	f.Add(measurementRow("2147483648"))
	f.Add(measurementRow("4294967297"))

	f.Fuzz(func(t *testing.T, csv string) {
		grid, err := ReadMeasurementsCSV(strings.NewReader(csv))
		if err != nil {
			return
		}
		if grid.NumLines <= 0 {
			t.Fatalf("accepted input with %d lines", grid.NumLines)
		}
		// Validate checks every cell sits at its own (line, week).
		if err := grid.Validate(grid.NumLines); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzReadTicketsCSV(f *testing.F) {
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.WriteTicketsCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("ticket,line,day,date,category,disposition,dispatch_day,tests_run\n1,2,3,x,billing,,,\n")
	f.Add("garbage")
	f.Add("")
	f.Add("ticket,line,day,date,category,disposition,dispatch_day,tests_run\n1,2147483648,3,x,billing,,,\n")
	f.Add("ticket,line,day,date,category,disposition,dispatch_day,tests_run\n1,4294967297,3,x,billing,,,\n")

	f.Fuzz(func(t *testing.T, csv string) {
		tickets, notes, err := ReadTicketsCSV(strings.NewReader(csv))
		if err != nil {
			return
		}
		for _, tk := range tickets {
			if tk.Day < 0 || tk.Day >= DaysInYear {
				t.Fatalf("ticket day %d accepted", tk.Day)
			}
			if tk.Line < 0 {
				t.Fatalf("ticket line %d accepted", tk.Line)
			}
		}
		byID := map[int]bool{}
		for _, tk := range tickets {
			byID[tk.ID] = true
		}
		for _, n := range notes {
			if !byID[n.TicketID] {
				t.Fatalf("note for unknown ticket %d", n.TicketID)
			}
		}
	})
}
