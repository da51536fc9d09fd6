package sim

import (
	"testing"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/faults"
	"nevermind/internal/rng"
)

// runSmall simulates a small network once per test binary run.
var smallResult *Result

func small(t *testing.T) *Result {
	t.Helper()
	if smallResult == nil {
		res, err := Run(DefaultConfig(3000, 11))
		if err != nil {
			t.Fatal(err)
		}
		smallResult = res
	}
	return smallResult
}

func TestRunProducesValidDataset(t *testing.T) {
	res := small(t)
	if err := res.Dataset.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) != res.Dataset.NumLines {
		t.Fatal("truth not per-line")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(DefaultConfig(400, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(400, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Dataset.Tickets) != len(b.Dataset.Tickets) {
		t.Fatalf("ticket counts differ: %d vs %d", len(a.Dataset.Tickets), len(b.Dataset.Tickets))
	}
	for i := range a.Dataset.Tickets {
		if a.Dataset.Tickets[i] != b.Dataset.Tickets[i] {
			t.Fatalf("ticket %d differs", i)
		}
	}
	for w := 0; w < data.Weeks; w++ {
		for l := data.LineID(0); int(l) < a.Dataset.NumLines; l++ {
			if *a.Dataset.At(l, w) != *b.Dataset.At(l, w) {
				t.Fatalf("measurement (%d,%d) differs", l, w)
			}
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a, _ := Run(DefaultConfig(400, 5))
	b, _ := Run(DefaultConfig(400, 6))
	if len(a.Dataset.Tickets) == len(b.Dataset.Tickets) {
		// Counts could coincide; compare content.
		same := true
		for i := range a.Dataset.Tickets {
			if a.Dataset.Tickets[i] != b.Dataset.Tickets[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical ticket streams")
		}
	}
}

func TestTicketVolumeInOperatingRange(t *testing.T) {
	res := small(t)
	edge := 0
	for _, tk := range res.Dataset.Tickets {
		if tk.Category == data.CatCustomerEdge {
			edge++
		}
	}
	perLineYear := float64(edge) / float64(res.Dataset.NumLines)
	// Roughly 0.05-0.7 customer-edge tickets per line-year.
	if perLineYear < 0.05 || perLineYear > 0.7 {
		t.Fatalf("%.3f customer-edge tickets per line-year outside operating range", perLineYear)
	}
}

func TestTicketsHaveFaultCause(t *testing.T) {
	res := small(t)
	ix := map[data.LineID][]Fault{}
	for li, fs := range res.Truth {
		ix[data.LineID(li)] = fs
	}
	for _, tk := range res.Dataset.Tickets {
		if tk.Category != data.CatCustomerEdge {
			continue
		}
		found := false
		for _, f := range ix[tk.Line] {
			// The ticket must arrive during or shortly after its fault
			// (dispatch can lag the fault's repair-end by a few days).
			if tk.Day >= f.Onset && tk.Day <= f.End+7 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("ticket %d on line %d day %d has no causal fault", tk.ID, tk.Line, tk.Day)
		}
	}
}

func TestNotesReferenceRealTickets(t *testing.T) {
	res := small(t)
	byID := map[int]data.Ticket{}
	for _, tk := range res.Dataset.Tickets {
		byID[tk.ID] = tk
	}
	for _, n := range res.Dataset.Notes {
		tk, ok := byID[n.TicketID]
		if !ok {
			t.Fatalf("note references missing ticket %d", n.TicketID)
		}
		if tk.Line != n.Line {
			t.Fatalf("note line %d != ticket line %d", n.Line, tk.Line)
		}
		if n.Day < tk.Day {
			t.Fatalf("dispatch day %d before ticket day %d", n.Day, tk.Day)
		}
		if n.Disposition < 0 || n.Disposition >= faults.NumDispositions {
			t.Fatalf("note has unknown disposition %d", n.Disposition)
		}
	}
}

func TestMostEdgeTicketsGetDispatched(t *testing.T) {
	res := small(t)
	edge := 0
	for _, tk := range res.Dataset.Tickets {
		if tk.Category == data.CatCustomerEdge {
			edge++
		}
	}
	if edge == 0 {
		t.Fatal("no customer-edge tickets at all")
	}
	if float64(len(res.Dataset.Notes)) < 0.8*float64(edge) {
		t.Fatalf("only %d notes for %d edge tickets", len(res.Dataset.Notes), edge)
	}
}

// Label noise: most notes must carry the true disposition, but not all —
// the paper stresses the notes are noisy ground truth.
func TestNoteLabelNoise(t *testing.T) {
	res := small(t)
	truthAt := func(line data.LineID, day int) (faults.DispositionID, bool) {
		for _, f := range res.Truth[line] {
			if day >= f.Onset && day <= f.End+7 {
				return f.Disp, true
			}
		}
		return faults.None, false
	}
	match, total := 0, 0
	for _, n := range res.Dataset.Notes {
		truth, ok := truthAt(n.Line, n.Day)
		if !ok {
			continue
		}
		total++
		if truth == faults.DispositionID(n.Disposition) {
			match++
		}
	}
	if total < 50 {
		t.Fatalf("only %d notes with causal faults", total)
	}
	frac := float64(match) / float64(total)
	if frac < 0.80 || frac > 0.97 {
		t.Fatalf("note label accuracy %.2f outside the configured noise band", frac)
	}
}

func TestWeeklyTicketTrendPeaksMonday(t *testing.T) {
	res := small(t)
	var byDay [7]int
	for _, tk := range res.Dataset.Tickets {
		if tk.Category == data.CatCustomerEdge {
			byDay[data.Weekday(tk.Day)]++
		}
	}
	mon := byDay[time.Monday]
	for wd, n := range byDay {
		if time.Weekday(wd) == time.Monday {
			continue
		}
		if n > mon {
			t.Fatalf("tickets peak on %v (%d) not Monday (%d)", time.Weekday(wd), n, mon)
		}
	}
	weekend := byDay[time.Saturday] + byDay[time.Sunday]
	weekdayAvg := float64(byDay[time.Monday]+byDay[time.Tuesday]+byDay[time.Wednesday]+byDay[time.Thursday]+byDay[time.Friday]) / 5
	if float64(weekend)/2 >= weekdayAvg {
		t.Fatal("weekend ticket volume should be the weekly low")
	}
}

func TestFaultIntervalsWellFormed(t *testing.T) {
	res := small(t)
	for li, fs := range res.Truth {
		prevEnd := -1
		for _, f := range fs {
			if f.Onset < 0 || f.Onset >= data.DaysInYear {
				t.Fatalf("line %d fault onset %d", li, f.Onset)
			}
			if f.End < f.Onset || f.End > data.DaysInYear {
				t.Fatalf("line %d fault [%d,%d) malformed", li, f.Onset, f.End)
			}
			if f.Onset < prevEnd {
				t.Fatalf("line %d has overlapping faults", li)
			}
			prevEnd = f.End
			if f.Sev <= 0 {
				t.Fatalf("line %d fault severity %v", li, f.Sev)
			}
			d := faults.Catalog[f.Disp]
			if f.Sev < d.SeverityLo-1e-9 || f.Sev > d.SeverityHi+1e-9 {
				t.Fatalf("severity %v outside %q range", f.Sev, d.Name)
			}
		}
	}
}

// Faulty lines must look worse in the Saturday measurements than healthy
// ones — otherwise there is nothing for the predictor to learn.
func TestMeasurementsReflectFaults(t *testing.T) {
	res := small(t)
	ds := res.Dataset
	var faultyCV, healthyCV, faultyN, healthyN float64
	for li, fs := range res.Truth {
		for w := 0; w < data.Weeks; w++ {
			m := ds.At(data.LineID(li), w)
			if m.Missing {
				continue
			}
			day := data.SaturdayOf(w)
			active := false
			for _, f := range fs {
				if f.Onset <= day && day < f.End {
					active = true
					break
				}
			}
			if active {
				faultyCV += float64(m.F[data.FDnCVCnt1])
				faultyN++
			} else {
				healthyCV += float64(m.F[data.FDnCVCnt1])
				healthyN++
			}
		}
	}
	if faultyN < 100 {
		t.Fatalf("only %v faulty line-weeks measured", faultyN)
	}
	if faultyCV/faultyN < 2*(healthyCV/healthyN) {
		t.Fatalf("faulty weeks mean CV %.1f vs healthy %.1f: too weak a signal",
			faultyCV/faultyN, healthyCV/healthyN)
	}
}

func TestOutagesSuppressTickets(t *testing.T) {
	// With heavy outages and no retry, lines under an outage report less.
	cfg := DefaultConfig(1500, 17)
	cfg.Outage.HazardPerDSLAMDay = 0.004 // ~4 outage-days/DSLAM-year
	cfg.Outage.MeanDurationDays = 5
	cfg.ReportRetryProb = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No customer-edge ticket should arrive from a line while its DSLAM
	// outage is active (IVR swallows the call).
	for _, tk := range res.Dataset.Tickets {
		if tk.Category != data.CatCustomerEdge {
			continue
		}
		if res.Dataset.OutageAt(int(res.Dataset.DSLAMOf[tk.Line]), tk.Day, tk.Day) {
			t.Fatalf("ticket %d issued during an active outage", tk.ID)
		}
	}
}

func TestBlameClosest(t *testing.T) {
	if BlameClosest(nil) != faults.None {
		t.Fatal("no faults should blame None")
	}
	hn := faults.ByLocation(faults.HN)[0]
	ds := faults.ByLocation(faults.DS)[0]
	got := BlameClosest([]Fault{{Disp: ds}, {Disp: hn}})
	if got != hn {
		t.Fatalf("BlameClosest picked %v, want the HN fault", got)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(100, 1)
	cfg.DispatchDelayMin = 5
	cfg.DispatchDelayMax = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("malformed dispatch delay accepted")
	}
	cfg = DefaultConfig(0, 1)
	cfg.Net.NumLines = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("bad network config accepted")
	}
}

func TestWalkFaultNeverTicketsBeforeOnset(t *testing.T) {
	res := small(t)
	for _, n := range res.Dataset.Notes {
		if n.TestsRun < 1 {
			t.Fatalf("note with %d tests", n.TestsRun)
		}
	}
	_ = rng.New(0)
}

func TestSelfHealBoundsFaultLife(t *testing.T) {
	cfg := DefaultConfig(800, 23)
	cfg.SelfHealMeanDays = 3 // very short lives
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := 0
	for _, fs := range res.Truth {
		for _, f := range fs {
			if f.End-f.Onset > 60 {
				long++
			}
		}
	}
	if long > 0 {
		t.Fatalf("%d faults outlived aggressive self-heal by 20x", long)
	}
}

// The weekend-deferral knob is what produces the Monday ticket peak; turning
// it off must flatten the weekend dip substantially.
func TestWeekendDeferralShapesArrivals(t *testing.T) {
	weekendShare := func(defer_ float64) float64 {
		cfg := DefaultConfig(2500, 31)
		cfg.WeekendDeferProb = defer_
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wk, total := 0, 0
		for _, tk := range res.Dataset.Tickets {
			if tk.Category != data.CatCustomerEdge {
				continue
			}
			total++
			if wd := data.Weekday(tk.Day); wd == time.Saturday || wd == time.Sunday {
				wk++
			}
		}
		return float64(wk) / float64(total)
	}
	with := weekendShare(0.6)
	without := weekendShare(0)
	if with >= without {
		t.Fatalf("weekend share with deferral %.3f >= without %.3f", with, without)
	}
	if without < 1.5*with {
		t.Fatalf("deferral too weak: %.3f vs %.3f", with, without)
	}
}

// With retry disabled, IVR suppression must strictly reduce the ticket count
// relative to a retry-always world.
func TestIVRRetryKnob(t *testing.T) {
	count := func(retry float64) int {
		cfg := DefaultConfig(2500, 37)
		cfg.Outage.HazardPerDSLAMDay = 0.004 // heavy outages to exercise IVR
		cfg.Outage.MeanDurationDays = 5
		cfg.ReportRetryProb = retry
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, tk := range res.Dataset.Tickets {
			if tk.Category == data.CatCustomerEdge {
				n++
			}
		}
		return n
	}
	never := count(0)
	always := count(1)
	if never >= always {
		t.Fatalf("IVR with no retries produced %d tickets vs %d with retries", never, always)
	}
}

// Dispatch delay bounds must be respected by every note.
func TestDispatchDelayBounds(t *testing.T) {
	res := small(t)
	dayOf := map[int]int{}
	for _, tk := range res.Dataset.Tickets {
		dayOf[tk.ID] = tk.Day
	}
	cfg := DefaultConfig(0, 0)
	for _, n := range res.Dataset.Notes {
		lag := n.Day - dayOf[n.TicketID]
		if lag < cfg.DispatchDelayMin || lag > cfg.DispatchDelayMax {
			t.Fatalf("dispatch lag %d outside [%d,%d]", lag, cfg.DispatchDelayMin, cfg.DispatchDelayMax)
		}
	}
}
