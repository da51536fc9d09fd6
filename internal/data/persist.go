package data

import (
	"bufio"
	"compress/gzip"
	"encoding/csv"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Save writes the dataset to path as gzipped gob, the native round-trip
// format used by cmd/dslsim.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("data: save: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	if err := gob.NewEncoder(zw).Encode(d); err != nil {
		return fmt.Errorf("data: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("data: flush: %w", err)
	}
	return f.Close()
}

// Load reads a dataset written by Save and validates it.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: load: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("data: gzip: %w", err)
	}
	defer zr.Close()
	var d Dataset
	if err := gob.NewDecoder(zr).Decode(&d); err != nil {
		return nil, fmt.Errorf("data: decode: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// WriteMeasurementsCSV exports the line-test grid with a header row, one row
// per (week, line) cell. Missing records and cells no record wrote keep
// their row (missing=true) so the export is a faithful dense grid.
func (d *Dataset) WriteMeasurementsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	header := append([]string{"line", "week", "date", "missing"}, BasicFeatureNames[:]...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	// A cell's line and week come from its position: a cell no record
	// wrote names neither.
	cpw := d.Grid.ChunksPerWeek
	for ci, chunk := range d.Grid.Chunks { // week-major, lines ascending
		week, lo := ci/cpw, ci%cpw*GridChunkLines
		row[1] = strconv.Itoa(week)
		row[2] = DateString(SaturdayOf(week))
		for i := range chunk {
			m := &chunk[i]
			row[0] = strconv.Itoa(lo + i)
			row[3] = strconv.FormatBool(m.Missing)
			for f := 0; f < NumBasicFeatures; f++ {
				row[4+f] = strconv.FormatFloat(float64(m.F[f]), 'g', 6, 64)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTicketsCSV exports the ticket stream joined with its disposition
// notes, one row per ticket.
func (d *Dataset) WriteTicketsCSV(w io.Writer) error {
	noteOf := make(map[int]DispositionNote, len(d.Notes))
	for _, n := range d.Notes {
		noteOf[n.TicketID] = n
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"ticket", "line", "day", "date", "category", "disposition", "dispatch_day", "tests_run"}); err != nil {
		return err
	}
	for _, t := range d.Tickets {
		row := []string{
			strconv.Itoa(t.ID), strconv.Itoa(int(t.Line)),
			strconv.Itoa(t.Day), DateString(t.Day), t.Category.String(),
			"", "", "",
		}
		if n, ok := noteOf[t.ID]; ok {
			row[5] = strconv.Itoa(n.Disposition)
			row[6] = strconv.Itoa(n.Day)
			row[7] = strconv.Itoa(n.TestsRun)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
