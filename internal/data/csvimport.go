package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV import — the adoption path for real operator data. The formats are
// the ones WriteMeasurementsCSV and WriteTicketsCSV emit; an ISP exporting
// its own line tests and tickets into those shapes can run the whole
// pipeline unmodified. The importers return components; the caller
// assembles the Dataset (profiles and topology come from the subscriber
// database, not from these files).

// ReadMeasurementsCSV parses a measurement export. Rows may arrive in any
// order; the result is the grid Dataset expects, as wide as the largest line
// id plus one. Cells absent from the file hold the no-record default.
func ReadMeasurementsCSV(r io.Reader) (*MeasurementGrid, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: measurements header: %w", err)
	}
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, need := range []string{"line", "week", "missing"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("data: measurements CSV missing %q column", need)
		}
	}
	featCol := make([]int, NumBasicFeatures)
	for f := 0; f < NumBasicFeatures; f++ {
		i, ok := col[BasicFeatureNames[f]]
		if !ok {
			return nil, fmt.Errorf("data: measurements CSV missing feature %q", BasicFeatureNames[f])
		}
		featCol[f] = i
	}

	var rows []Measurement
	maxLine := -1
	for lineNo := 2; ; lineNo++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: measurements row %d: %w", lineNo, err)
		}
		var m Measurement
		id, err := strconv.ParseInt(row[col["line"]], 10, 32) // must fit LineID
		if err != nil || id < 0 {
			return nil, fmt.Errorf("data: row %d: bad line id %q", lineNo, row[col["line"]])
		}
		m.Line = LineID(id)
		week, err := strconv.Atoi(row[col["week"]])
		if err != nil || week < 0 || week >= Weeks {
			return nil, fmt.Errorf("data: row %d: bad week %q", lineNo, row[col["week"]])
		}
		m.Week = week
		missing, err := strconv.ParseBool(row[col["missing"]])
		if err != nil {
			return nil, fmt.Errorf("data: row %d: bad missing flag %q", lineNo, row[col["missing"]])
		}
		m.Missing = missing
		for f := 0; f < NumBasicFeatures; f++ {
			v, err := strconv.ParseFloat(row[featCol[f]], 32)
			if err != nil {
				return nil, fmt.Errorf("data: row %d: bad %s value %q", lineNo, BasicFeatureNames[f], row[featCol[f]])
			}
			m.F[f] = float32(v)
		}
		maxLine = max(maxLine, int(id))
		rows = append(rows, m)
	}
	if maxLine < 0 {
		return nil, fmt.Errorf("data: measurements CSV has no rows")
	}
	grid := NewMeasurementGrid(maxLine + 1)
	for _, m := range rows {
		grid.SetCOW(nil, m.Line, m.Week, m)
	}
	return grid, nil
}

// ReadTicketsCSV parses a ticket export (with joined disposition-note
// columns, as WriteTicketsCSV emits). Tickets are returned sorted the way
// the file lists them; notes exist for rows with a disposition.
func ReadTicketsCSV(r io.Reader) ([]Ticket, []DispositionNote, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("data: tickets header: %w", err)
	}
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, need := range []string{"ticket", "line", "day", "category", "disposition", "dispatch_day", "tests_run"} {
		if _, ok := col[need]; !ok {
			return nil, nil, fmt.Errorf("data: tickets CSV missing %q column", need)
		}
	}
	var tickets []Ticket
	var notes []DispositionNote
	for lineNo := 2; ; lineNo++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("data: tickets row %d: %w", lineNo, err)
		}
		id, err := strconv.Atoi(row[col["ticket"]])
		if err != nil {
			return nil, nil, fmt.Errorf("data: row %d: bad ticket id", lineNo)
		}
		lid, err := strconv.ParseInt(row[col["line"]], 10, 32)
		if err != nil || lid < 0 {
			return nil, nil, fmt.Errorf("data: row %d: bad line id %q", lineNo, row[col["line"]])
		}
		day, err := strconv.Atoi(row[col["day"]])
		if err != nil || day < 0 || day >= DaysInYear {
			return nil, nil, fmt.Errorf("data: row %d: bad day", lineNo)
		}
		cat, err := parseCategory(row[col["category"]])
		if err != nil {
			return nil, nil, fmt.Errorf("data: row %d: %w", lineNo, err)
		}
		tickets = append(tickets, Ticket{ID: id, Line: LineID(lid), Day: day, Category: cat})

		if d := row[col["disposition"]]; d != "" {
			disp, err := strconv.Atoi(d)
			if err != nil {
				return nil, nil, fmt.Errorf("data: row %d: bad disposition %q", lineNo, d)
			}
			dd, err := strconv.Atoi(row[col["dispatch_day"]])
			if err != nil {
				return nil, nil, fmt.Errorf("data: row %d: bad dispatch day", lineNo)
			}
			tests, err := strconv.Atoi(row[col["tests_run"]])
			if err != nil {
				return nil, nil, fmt.Errorf("data: row %d: bad tests_run", lineNo)
			}
			notes = append(notes, DispositionNote{
				TicketID: id, Line: LineID(lid), Day: dd, Disposition: disp, TestsRun: tests,
			})
		}
	}
	return tickets, notes, nil
}

func parseCategory(s string) (TicketCategory, error) {
	switch s {
	case "customer-edge":
		return CatCustomerEdge, nil
	case "billing":
		return CatBilling, nil
	case "other":
		return CatOther, nil
	}
	return 0, fmt.Errorf("data: unknown ticket category %q", s)
}
