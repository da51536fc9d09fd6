package data

import (
	"fmt"
	"sort"

	"nevermind/internal/rng"
)

// Dataset bundles one simulated (or imported) year of operational data in the
// shape NEVERMIND consumes: the weekly line-test grid, the customer ticket
// stream, the dispatch disposition notes, subscriber profiles, and the DSLAM
// outage log used by the §5.2 analyses.
//
// Grid holds the weekly line tests: exactly one cell per (week, line),
// with Missing set when the modem was off or no record arrived,
// addressable in constant time through At.
type Dataset struct {
	NumLines  int
	ProfileOf []uint8 // service tier per line, index into Profiles
	DSLAMOf   []int32 // DSLAM id per line
	NumDSLAMs int

	Grid    *MeasurementGrid // the line-test grid, NumLines wide
	Tickets []Ticket         // sorted by arrival day
	Notes   []DispositionNote
	Outages []Outage

	// Customer behaviour context for the §5.2 analyses.
	UsageOf []float32  // per-line propensity to be actively using the service
	Aways   []AwaySpan // intervals when the subscriber is away from home

	// TrafficSeed derives the per-day traffic byte counters.
	TrafficSeed uint64
}

// AwaySpan is a period when a subscriber is away (vacation etc.) and
// therefore cannot perceive or report DSL problems.
type AwaySpan struct {
	Line     LineID
	StartDay int
	EndDay   int // inclusive
}

// At returns the measurement for (line, week), read-only (see
// MeasurementGrid.At). It panics on out-of-range arguments; use it only on
// complete grids (Validate checks this).
func (d *Dataset) At(line LineID, week int) *Measurement {
	return d.Grid.At(line, week)
}

// Profile returns the subscriber profile of a line.
func (d *Dataset) Profile(line LineID) Profile {
	return Profiles[d.ProfileOf[line]]
}

// Validate checks the structural invariants the rest of the system relies
// on: a dense week-major grid, per-line attribute slices of the right
// length, tickets sorted by day, and in-range references.
func (d *Dataset) Validate() error {
	if len(d.ProfileOf) != d.NumLines || len(d.DSLAMOf) != d.NumLines || len(d.UsageOf) != d.NumLines {
		return fmt.Errorf("data: per-line slices must have length %d", d.NumLines)
	}
	if err := d.Grid.Validate(d.NumLines); err != nil {
		return err
	}
	if !sort.SliceIsSorted(d.Tickets, func(i, j int) bool { return d.Tickets[i].Day < d.Tickets[j].Day }) {
		return fmt.Errorf("data: tickets not sorted by day")
	}
	for _, t := range d.Tickets {
		if int(t.Line) < 0 || int(t.Line) >= d.NumLines {
			return fmt.Errorf("data: ticket %d references line %d outside [0,%d)", t.ID, t.Line, d.NumLines)
		}
		if t.Day < 0 || t.Day >= DaysInYear {
			return fmt.Errorf("data: ticket %d has day %d outside the year", t.ID, t.Day)
		}
	}
	for i := range d.ProfileOf {
		if int(d.ProfileOf[i]) >= len(Profiles) {
			return fmt.Errorf("data: line %d has unknown profile %d", i, d.ProfileOf[i])
		}
		if int(d.DSLAMOf[i]) < 0 || int(d.DSLAMOf[i]) >= d.NumDSLAMs {
			return fmt.Errorf("data: line %d has DSLAM %d outside [0,%d)", i, d.DSLAMOf[i], d.NumDSLAMs)
		}
	}
	for _, o := range d.Outages {
		if o.DSLAM < 0 || o.DSLAM >= d.NumDSLAMs || o.StartDay > o.EndDay {
			return fmt.Errorf("data: malformed outage %+v", o)
		}
	}
	return nil
}

// OnSite reports whether the subscriber was at home on the given day.
func (d *Dataset) OnSite(line LineID, day int) bool {
	for _, a := range d.Aways {
		if a.Line == line && day >= a.StartDay && day <= a.EndDay {
			return false
		}
	}
	return true
}

// DailyBytes returns the simulated aggregate downstream bytes a subscriber
// pulled on a day, the per-customer counter the paper collects from two BRAS
// servers for the not-on-site analysis (§5.2). Away subscribers generate no
// traffic; at-home usage is lognormal around the line's usage propensity.
func (d *Dataset) DailyBytes(line LineID, day int) float64 {
	if !d.OnSite(line, day) {
		return 0
	}
	r := rng.Derive(d.TrafficSeed, uint64(line), uint64(day))
	u := float64(d.UsageOf[line])
	if !r.Bool(u) { // subscriber did not go online that day
		return 0
	}
	const meanBytes = 2e8 // ~200 MB on an active day in 2009
	return meanBytes * u * r.LogNormal(0, 0.75)
}

// NextTicketWithin reports whether the line files a customer-edge ticket in
// the window (afterDay, afterDay+windowDays]. This is the label function
// Tkt(u, t, T) of §4.1 with T = windowDays.
func (d *Dataset) NextTicketWithin(line LineID, afterDay, windowDays int) bool {
	// Tickets are sorted by day; binary search to the window start.
	i := sort.Search(len(d.Tickets), func(i int) bool { return d.Tickets[i].Day > afterDay })
	for ; i < len(d.Tickets); i++ {
		t := d.Tickets[i]
		if t.Day > afterDay+windowDays {
			return false
		}
		if t.Line == line && t.Category == CatCustomerEdge {
			return true
		}
	}
	return false
}

// DaysToNextTicket returns the number of days from afterDay to the line's
// next customer-edge ticket, and false if none arrives before year end.
func (d *Dataset) DaysToNextTicket(line LineID, afterDay int) (int, bool) {
	i := sort.Search(len(d.Tickets), func(i int) bool { return d.Tickets[i].Day > afterDay })
	for ; i < len(d.Tickets); i++ {
		t := d.Tickets[i]
		if t.Line == line && t.Category == CatCustomerEdge {
			return t.Day - afterDay, true
		}
	}
	return 0, false
}

// OutageAt reports whether the DSLAM serving the line has an outage active in
// [startDay, endDay].
func (d *Dataset) OutageAt(dslam int, startDay, endDay int) bool {
	for _, o := range d.Outages {
		if o.DSLAM == dslam && o.StartDay <= endDay && o.EndDay >= startDay {
			return true
		}
	}
	return false
}
