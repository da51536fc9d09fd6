package data

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyDataset builds a 3-line dataset with a complete measurement grid and a
// few hand-placed tickets for the query helpers.
func tinyDataset() *Dataset {
	d := &Dataset{
		NumLines:    3,
		ProfileOf:   []uint8{0, 1, 2},
		DSLAMOf:     []int32{0, 0, 1},
		NumDSLAMs:   2,
		UsageOf:     []float32{0.9, 0.5, 0.1},
		Grid:        NewMeasurementGrid(3),
		TrafficSeed: 77,
	}
	for w := 0; w < Weeks; w++ {
		for l := 0; l < 3; l++ {
			m := Measurement{Line: LineID(l), Week: w}
			m.F[FDnBR] = float32(700 + 10*l)
			d.Grid.SetCOW(nil, LineID(l), w, m)
		}
	}
	d.Tickets = []Ticket{
		{ID: 1, Line: 0, Day: 50, Category: CatCustomerEdge},
		{ID: 2, Line: 1, Day: 60, Category: CatBilling},
		{ID: 3, Line: 0, Day: 90, Category: CatCustomerEdge},
		{ID: 4, Line: 2, Day: 120, Category: CatCustomerEdge},
	}
	d.Notes = []DispositionNote{{TicketID: 1, Line: 0, Day: 52, Disposition: 3, TestsRun: 4}}
	d.Outages = []Outage{{DSLAM: 1, StartDay: 100, EndDay: 103}}
	d.Aways = []AwaySpan{{Line: 2, StartDay: 200, EndDay: 210}}
	return d
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := tinyDataset().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsCorruptGrid(t *testing.T) {
	d := tinyDataset()
	d.At(2, 1).Week = 99
	if err := d.Validate(); err == nil {
		t.Fatal("corrupt grid passed validation")
	}
}

func TestValidateRejectsUnsortedTickets(t *testing.T) {
	d := tinyDataset()
	d.Tickets[0].Day = 300
	if err := d.Validate(); err == nil {
		t.Fatal("unsorted tickets passed validation")
	}
}

func TestValidateRejectsBadReferences(t *testing.T) {
	d := tinyDataset()
	d.Tickets = append(d.Tickets, Ticket{ID: 9, Line: 55, Day: 364})
	if err := d.Validate(); err == nil {
		t.Fatal("out-of-range line reference passed validation")
	}
	d = tinyDataset()
	d.DSLAMOf[0] = 9
	if err := d.Validate(); err == nil {
		t.Fatal("out-of-range DSLAM passed validation")
	}
}

func TestAtAddressing(t *testing.T) {
	d := tinyDataset()
	m := d.At(2, 10)
	if m.Line != 2 || m.Week != 10 {
		t.Fatalf("At(2,10) returned (%d,%d)", m.Line, m.Week)
	}
	if m.F[FDnBR] != 720 {
		t.Fatalf("At(2,10) dnbr = %v", m.F[FDnBR])
	}
}

func TestNextTicketWithin(t *testing.T) {
	d := tinyDataset()
	// Billing tickets never count as customer-edge labels.
	if d.NextTicketWithin(1, 0, 365) {
		t.Fatal("billing ticket counted as customer-edge")
	}
	if !d.NextTicketWithin(0, 40, 28) {
		t.Fatal("line 0 should have a ticket within (40, 68]")
	}
	if d.NextTicketWithin(0, 50, 28) {
		t.Fatal("window is exclusive of afterDay tickets; next is day 90")
	}
	if !d.NextTicketWithin(0, 50, 40) {
		t.Fatal("day-90 ticket should fall within (50, 90]")
	}
}

func TestDaysToNextTicket(t *testing.T) {
	d := tinyDataset()
	if days, ok := d.DaysToNextTicket(0, 50); !ok || days != 40 {
		t.Fatalf("got %d,%v want 40,true", days, ok)
	}
	if _, ok := d.DaysToNextTicket(0, 90); ok {
		t.Fatal("no ticket after day 90 for line 0")
	}
}

func TestTicketIndexAgreesWithDataset(t *testing.T) {
	d := tinyDataset()
	ix := NewTicketIndex(d)
	for l := LineID(0); l < 3; l++ {
		for day := 0; day < DaysInYear; day += 13 {
			want := d.NextTicketWithin(l, day, 28)
			if got := ix.Within(l, day, 28); got != want {
				t.Fatalf("index disagrees at line %d day %d: %v vs %v", l, day, got, want)
			}
		}
	}
}

func TestTicketIndexPrev(t *testing.T) {
	ix := NewTicketIndex(tinyDataset())
	if _, ok := ix.Prev(0, 49); ok {
		t.Fatal("no ticket at or before day 49")
	}
	if day, ok := ix.Prev(0, 50); !ok || day != 50 {
		t.Fatalf("Prev(0,50) = %d,%v", day, ok)
	}
	if day, ok := ix.Prev(0, 400); !ok || day != 90 {
		t.Fatalf("Prev(0,400) = %d,%v", day, ok)
	}
	if n := ix.Count(0); n != 2 {
		t.Fatalf("Count(0) = %d", n)
	}
}

func TestOnSiteAndTraffic(t *testing.T) {
	d := tinyDataset()
	if d.OnSite(2, 205) {
		t.Fatal("line 2 is away on day 205")
	}
	if !d.OnSite(2, 199) {
		t.Fatal("line 2 is home on day 199")
	}
	if b := d.DailyBytes(2, 205); b != 0 {
		t.Fatalf("away subscriber generated %v bytes", b)
	}
	// High-usage subscriber should generate traffic on most days.
	active := 0
	for day := 0; day < 100; day++ {
		if d.DailyBytes(0, day) > 0 {
			active++
		}
	}
	if active < 70 {
		t.Fatalf("usage-0.9 subscriber active only %d/100 days", active)
	}
	// Deterministic given (seed, line, day).
	if d.DailyBytes(0, 10) != d.DailyBytes(0, 10) {
		t.Fatal("DailyBytes is not deterministic")
	}
}

func TestOutageAt(t *testing.T) {
	d := tinyDataset()
	if !d.OutageAt(1, 99, 100) {
		t.Fatal("outage overlapping window start not found")
	}
	if d.OutageAt(1, 104, 200) {
		t.Fatal("outage reported outside its interval")
	}
	if d.OutageAt(0, 0, 364) {
		t.Fatal("DSLAM 0 has no outage")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := tinyDataset()
	path := filepath.Join(t.TempDir(), "ds.gob.gz")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLines != d.NumLines || got.Grid.NumLines != d.Grid.NumLines {
		t.Fatal("round trip lost shape")
	}
	if got.At(1, 3).F[FDnBR] != d.At(1, 3).F[FDnBR] {
		t.Fatal("round trip lost measurement values")
	}
	if len(got.Tickets) != len(d.Tickets) || got.Tickets[2].Day != d.Tickets[2].Day {
		t.Fatal("round trip lost tickets")
	}
}

func TestCSVExports(t *testing.T) {
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.WriteMeasurementsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+Weeks*3 {
		t.Fatalf("measurement CSV has %d lines, want %d", len(lines), 1+Weeks*3)
	}
	if !strings.Contains(lines[0], "dnbr") {
		t.Fatalf("header missing feature names: %s", lines[0])
	}

	buf.Reset()
	if err := d.WriteTicketsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(d.Tickets) {
		t.Fatalf("ticket CSV has %d lines", len(lines))
	}
	// Ticket 1 has a disposition note joined in.
	if !strings.Contains(lines[1], ",3,52,4") {
		t.Fatalf("note not joined: %s", lines[1])
	}
}

func TestCategoricalBasicFeature(t *testing.T) {
	for f := 0; f < NumBasicFeatures; f++ {
		got := CategoricalBasicFeature(f)
		want := f == FState || f == FBT || f == FCrosstalk
		if got != want {
			t.Fatalf("CategoricalBasicFeature(%s) = %v", BasicFeatureNames[f], got)
		}
	}
}

func TestFeatureNamesComplete(t *testing.T) {
	if NumBasicFeatures != 25 {
		t.Fatalf("Table 2 defines 25 line features, have %d", NumBasicFeatures)
	}
	seen := map[string]bool{}
	for _, n := range BasicFeatureNames {
		if n == "" {
			t.Fatal("unnamed basic feature")
		}
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestLoadRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()

	// Not gzip at all.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("plain text"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(junk); err == nil {
		t.Fatal("non-gzip file accepted")
	}

	// Valid gzip, garbage gob.
	gz := filepath.Join(dir, "garbage.gz")
	f, err := os.Create(gz)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write([]byte("not a gob stream")); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	f.Close()
	if _, err := Load(gz); err == nil {
		t.Fatal("garbage gob accepted")
	}

	// Truncated valid file.
	good := filepath.Join(dir, "good")
	if err := tinyDataset().Save(good); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc")
	if err := os.WriteFile(trunc, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(trunc); err == nil {
		t.Fatal("truncated file accepted")
	}

	// Structurally invalid dataset must fail Load's validation.
	bad := tinyDataset()
	bad.DSLAMOf[0] = 99
	badPath := filepath.Join(dir, "invalid")
	if err := bad.Save(badPath); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badPath); err == nil {
		t.Fatal("invalid dataset accepted on load")
	}

	// Missing file.
	if _, err := Load(filepath.Join(dir, "absent")); err == nil {
		t.Fatal("missing file accepted")
	}
}
