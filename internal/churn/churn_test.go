package churn

import (
	"math"
	"testing"
	"testing/quick"

	"nevermind/internal/data"
	"nevermind/internal/sim"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	bad := []func(*Model){
		func(m *Model) { m.BaseChurnProb = -0.1 },
		func(m *Model) { m.BaseChurnProb = 1.5 },
		func(m *Model) { m.PerDayDelay = -1 },
		func(m *Model) { m.RepeatMultiplier = 0.5 },
		func(m *Model) { m.RepeatWindowDays = 0 },
		func(m *Model) { m.TruckRollUSD = -5 },
	}
	for i, mutate := range bad {
		m := Default()
		mutate(&m)
		if m.Validate() == nil {
			t.Fatalf("bad model %d accepted", i)
		}
	}
}

func TestChurnProbMonotoneInLatency(t *testing.T) {
	m := Default()
	prev := -1.0
	for d := 0; d <= 30; d++ {
		p := m.TicketChurnProb(d, 0)
		if p < prev {
			t.Fatalf("churn hazard fell at %d days", d)
		}
		prev = p
	}
}

func TestChurnProbGrowsWithRepeats(t *testing.T) {
	m := Default()
	if m.TicketChurnProb(2, 1) <= m.TicketChurnProb(2, 0) {
		t.Fatal("repeat ticket not worse than first")
	}
	if m.TicketChurnProb(2, 3) <= m.TicketChurnProb(2, 1) {
		t.Fatal("third repeat not worse than first repeat")
	}
}

func TestChurnProbClamped(t *testing.T) {
	err := quick.Check(func(lat uint8, rep uint8) bool {
		p := Default().TicketChurnProb(int(lat), int(rep)%12)
		return p >= 0 && p <= 0.9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := Default().TicketChurnProb(-5, 0); p != Default().TicketChurnProb(0, 0) {
		t.Fatalf("negative latency not clamped: %v", p)
	}
}

func TestAssessKnownStream(t *testing.T) {
	m := Default()
	ds := &data.Dataset{
		NumLines:  2,
		ProfileOf: []uint8{0, 0},
		DSLAMOf:   []int32{0, 0},
		NumDSLAMs: 1,
		UsageOf:   []float32{0.5, 0.5},
		Grid:      data.NewMeasurementGrid(2),
	}
	ds.Tickets = []data.Ticket{
		{ID: 0, Line: 0, Day: 100, Category: data.CatCustomerEdge},
		{ID: 1, Line: 0, Day: 110, Category: data.CatCustomerEdge}, // repeat within 60d
		{ID: 2, Line: 1, Day: 120, Category: data.CatBilling},      // not priced
	}
	ds.Notes = []data.DispositionNote{
		{TicketID: 0, Line: 0, Day: 102, Disposition: 1, TestsRun: 2},
		{TicketID: 1, Line: 0, Day: 113, Disposition: 1, TestsRun: 2},
	}
	a, err := m.Assess(ds, 0, 364)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tickets != 2 || a.Dispatches != 2 {
		t.Fatalf("counts %+v", a)
	}
	wantOpex := 2*m.CallUSD + 2*m.TruckRollUSD
	if math.Abs(a.OpexUSD-wantOpex) > 1e-9 {
		t.Fatalf("opex %v, want %v", a.OpexUSD, wantOpex)
	}
	p0 := m.TicketChurnProb(2, 0)
	p1 := m.TicketChurnProb(3, 1) // second ticket: one prior within 60d
	if math.Abs(a.ExpectedChurners-(p0+p1)) > 1e-12 {
		t.Fatalf("churners %v, want %v", a.ExpectedChurners, p0+p1)
	}
	if a.TotalUSD() <= a.OpexUSD {
		t.Fatal("total must include churn cost")
	}
}

func TestAssessWindowFilters(t *testing.T) {
	m := Default()
	ds := &data.Dataset{
		NumLines: 1, ProfileOf: []uint8{0}, DSLAMOf: []int32{0}, NumDSLAMs: 1, UsageOf: []float32{0.5},
		Grid: data.NewMeasurementGrid(1),
	}
	ds.Tickets = []data.Ticket{
		{ID: 0, Line: 0, Day: 50, Category: data.CatCustomerEdge},
		{ID: 1, Line: 0, Day: 200, Category: data.CatCustomerEdge},
	}
	a, err := m.Assess(ds, 150, 250)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tickets != 1 {
		t.Fatalf("window kept %d tickets", a.Tickets)
	}
}

func TestAssessOnSimulatedYear(t *testing.T) {
	res, err := sim.Run(sim.DefaultConfig(1500, 3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Default().Assess(res.Dataset, 0, data.DaysInYear-1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tickets < 100 {
		t.Fatalf("only %d tickets priced", a.Tickets)
	}
	if a.ExpectedChurners <= 0 || a.ExpectedChurners > float64(a.Tickets) {
		t.Fatalf("churners %v of %d tickets", a.ExpectedChurners, a.Tickets)
	}
	// Mean churn hazard per ticket should be in the configured few-percent
	// regime.
	mean := a.ExpectedChurners / float64(a.Tickets)
	if mean < 0.005 || mean > 0.15 {
		t.Fatalf("mean churn hazard %v outside regime", mean)
	}
	if a.OpexUSD <= 0 || a.ChurnUSD <= 0 {
		t.Fatalf("degenerate costs %+v", a)
	}
}

func TestValuePerEliminatedTicket(t *testing.T) {
	m := Default()
	v := m.ValuePerEliminatedTicket(0.9, 2)
	if v <= m.CallUSD {
		t.Fatal("eliminated ticket worth no more than the call")
	}
	// More truck rolls → more value.
	if m.ValuePerEliminatedTicket(1, 2) <= m.ValuePerEliminatedTicket(0.1, 2) {
		t.Fatal("value not increasing in dispatch fraction")
	}
}
