package sim

import (
	"fmt"
	"sort"

	"nevermind/internal/data"
	"nevermind/internal/dsl"
	"nevermind/internal/faults"
	"nevermind/internal/rng"
)

// Fault is one injected fault instance on a line: a disposition with a drawn
// severity, active on days [Onset, End).
type Fault struct {
	Disp  faults.DispositionID
	Sev   float64
	Onset int
	End   int // exclusive; data.DaysInYear if never cleared in-year
}

// Result is a simulated year: the operator-visible Dataset plus the hidden
// ground truth (the actual fault instances) that tests and analyses can
// consult but the learning pipeline must never see.
type Result struct {
	Dataset *data.Dataset
	Net     *dsl.Network
	// Truth holds each line's fault instances, ordered by onset.
	Truth [][]Fault
	// Wetness is the regional weather series, [ATM][week] in [0,1].
	Wetness [][]float64
}

// Run simulates one year of network operation.
func Run(cfg Config) (*Result, error) {
	net, err := dsl.Build(cfg.Net)
	if err != nil {
		return nil, err
	}
	if cfg.DispatchDelayMin < 0 || cfg.DispatchDelayMax < cfg.DispatchDelayMin {
		return nil, fmt.Errorf("sim: dispatch delay range [%d,%d] malformed", cfg.DispatchDelayMin, cfg.DispatchDelayMax)
	}
	nLines := len(net.Lines)

	ds := &data.Dataset{
		NumLines:    nLines,
		NumDSLAMs:   net.NumDSLAMs,
		ProfileOf:   make([]uint8, nLines),
		DSLAMOf:     make([]int32, nLines),
		UsageOf:     make([]float32, nLines),
		TrafficSeed: rng.Derive(cfg.Seed, 0x7a5).Uint64(),
	}
	for i := range net.Lines {
		ds.ProfileOf[i] = net.Lines[i].Profile
		ds.DSLAMOf[i] = net.Lines[i].DSLAM
		ds.UsageOf[i] = float32(net.Lines[i].Usage)
	}

	// Phase 1: environment — DSLAM outages (needed before customer
	// behaviour: IVR) and the regional wetness series that modulates the
	// moisture-driven fault hazards.
	ds.Outages = genOutages(cfg, net.NumDSLAMs)
	weather := genWeather(cfg, net.NumATMs)
	hazards := buildHazardTable(weather, cfg.WeatherAmplitude)

	// Phase 2: per-line behaviour — vacations, fault lifecycles, tickets.
	res := &Result{Dataset: ds, Net: net, Truth: make([][]Fault, nLines), Wetness: weather}
	var tickets []rawTicket
	awayOf := make([][]data.AwaySpan, nLines)

	for li := range net.Lines {
		line := &net.Lines[li]
		r := rng.Derive(cfg.Seed, 0xcafe, uint64(li))

		// Vacations: mostly short trips, with a long tail of extended
		// absences (seasonal homes, work postings) that outlast the 4-week
		// label window — the §5.2 not-on-site population.
		if r.Bool(cfg.VacationProb) {
			length := 5 + r.Intn(10)
			if r.Bool(0.25) {
				length = 20 + r.Intn(41)
			}
			start := r.Intn(data.DaysInYear - length)
			span := data.AwaySpan{Line: line.ID, StartDay: start, EndDay: start + length}
			ds.Aways = append(ds.Aways, span)
			awayOf[li] = append(awayOf[li], span)
		}

		// Fault onsets: one Bernoulli(total hazard) draw per day, then a
		// categorical pick of the disposition, with the week's regional
		// weather folded into the weights.
		for day := 0; day < data.DaysInYear; day++ {
			weights, total := hazards.at(line.ATM, day)
			if !r.Bool(total) {
				continue
			}
			d := &faults.Catalog[r.Categorical(weights)]
			f := Fault{
				Disp:  d.ID,
				Sev:   r.Uniform(d.SeverityLo, d.SeverityHi),
				Onset: day,
				End:   data.DaysInYear,
			}
			// Walk the fault's life: notice → report → dispatch → fix,
			// with IVR suppression and repeat tickets.
			lineTickets := walkFault(cfg, ds, line, awayOf[li], d, &f, r)
			tickets = append(tickets, lineTickets...)
			res.Truth[li] = append(res.Truth[li], f)
			if f.End > day {
				// Faults on one line do not overlap: the next onset draw
				// resumes after this fault clears, which keeps dispatch
				// attribution unambiguous (see BlameClosest for the
				// multi-fault labelling rule).
				day = f.End - 1
			}
		}

		// Non-edge tickets (billing etc.).
		for day := 0; day < data.DaysInYear; day++ {
			if r.Bool(cfg.OtherTicketRate) {
				cat := data.CatBilling
				if r.Bool(0.4) {
					cat = data.CatOther
				}
				tickets = append(tickets, rawTicket{line: line.ID, day: day, category: cat})
			}
		}
	}

	// Phase 3: assign IDs in day order and materialise notes.
	sort.SliceStable(tickets, func(i, j int) bool { return tickets[i].day < tickets[j].day })
	for i, t := range tickets {
		ds.Tickets = append(ds.Tickets, data.Ticket{ID: i, Line: t.line, Day: t.day, Category: t.category})
		if t.dispatched {
			ds.Notes = append(ds.Notes, data.DispositionNote{
				TicketID: i, Line: t.line, Day: t.dispatchDay,
				Disposition: int(t.disp), TestsRun: t.testsRun,
			})
		}
	}

	// Phase 4: weekly Saturday line tests.
	ds.Grid = data.NewMeasurementGrid(nLines)
	for w := 0; w < data.Weeks; w++ {
		day := data.SaturdayOf(w)
		outageNow := make(map[int32]bool)
		prodrome := make(map[int32]float64) // DSLAM → ramp scale (0,1]
		for _, o := range ds.Outages {
			if o.Active(day) {
				outageNow[int32(o.DSLAM)] = true
			}
			// A DSLAM heading for an outage (flaking card, failing power
			// feed) degrades every line it serves for a stretch before it
			// dies outright, ramping up as the failure nears. Most
			// customers shrug the degradation off, but the Saturday test
			// sees it — which is what makes clustered predictions an
			// outage early-warning (§5.2).
			if o.StartDay > day && o.StartDay <= day+prodromeDays &&
				rng.Derive(cfg.Seed, 0xd15e, uint64(o.DSLAM), uint64(o.StartDay)).Bool(prodromeProb) {
				s := 1 - float64(o.StartDay-day)/float64(prodromeDays)
				if s > prodrome[int32(o.DSLAM)] {
					prodrome[int32(o.DSLAM)] = s
				}
			}
		}
		for li := range net.Lines {
			line := &net.Lines[li]
			eff := faults.NoEffect
			for _, f := range res.Truth[li] {
				if f.Onset <= day && day < f.End {
					eff = eff.Combine(faults.Catalog[f.Disp].Effect.Scale(f.Sev))
				}
			}
			if s := prodrome[line.DSLAM]; s > 0 {
				eff = eff.Combine(prodromeEffect.Scale(s))
			}
			if isAway(awayOf[li], day) {
				// An away subscriber generates no traffic, so the rolling
				// cell counters collapse even though the loop is healthy.
				eff.CellsFactor *= 0.02
			}
			outage := outageNow[line.DSLAM]
			mr := rng.Derive(cfg.Seed, 0x7e57, uint64(li), uint64(w))
			ds.Grid.SetCOW(nil, data.LineID(li), w, dsl.Measure(line, eff, outage, w, mr))
		}
	}

	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("sim: generated invalid dataset: %w", err)
	}
	return res, nil
}

// prodromeDays is how long before an outage the serving DSLAM visibly
// degrades its lines, and prodromeProb is the share of outages that announce
// themselves this way (hard failures — power, cable cuts — come unannounced).
const (
	prodromeDays = 30
	prodromeProb = 0.12
)

// prodromeEffect is the mild whole-DSLAM degradation of a failing DSLAM:
// enough to move the line tests, rarely enough for a customer to call. It
// ramps up as the outage approaches (scaled by 1 − daysUntil/prodromeDays),
// which is what spreads the Table 5 growth across the 1..4 week horizons.
var prodromeEffect = faults.Effect{
	RateFactor:  0.99,
	CellsFactor: 0.97,
	MarginDelta: -1,
	CVRate:      13,
	ESRate:      4,
	FECRate:     20,
	OffProb:     0.015,
}

// hazardWeights returns the catalog hazards as categorical weights.
func hazardWeights() []float64 {
	w := make([]float64, faults.NumDispositions)
	for i := range faults.Catalog {
		w[i] = faults.Catalog[i].Hazard
	}
	return w
}

// genOutages draws the DSLAM outage processes.
func genOutages(cfg Config, numDSLAMs int) []data.Outage {
	var outages []data.Outage
	for d := 0; d < numDSLAMs; d++ {
		r := rng.Derive(cfg.Seed, 0x017, uint64(d))
		for day := 0; day < data.DaysInYear; day++ {
			if !r.Bool(cfg.Outage.HazardPerDSLAMDay) {
				continue
			}
			dur := 1 + r.Geometric(1/cfg.Outage.MeanDurationDays)
			end := day + dur - 1
			if end >= data.DaysInYear {
				end = data.DaysInYear - 1
			}
			outages = append(outages, data.Outage{DSLAM: d, StartDay: day, EndDay: end})
			day = end + 1 // no overlapping outages at one DSLAM
		}
	}
	sort.Slice(outages, func(i, j int) bool { return outages[i].StartDay < outages[j].StartDay })
	return outages
}
