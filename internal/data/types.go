package data

// LineID identifies one dedicated DSL line (equivalently, one subscriber).
type LineID int32

// Basic line features measured by the weekly DSLAM-initiated line test,
// exactly the 25 features of Table 2 in the paper. Prefixes "Dn" and "Up"
// mean downstream (downloading) and upstream (uploading).
const (
	FState          = iota // 1 if the modem was on during the test
	FDnBR                  // downstream bit rate (kbps)
	FUpBR                  // upstream bit rate (kbps)
	FDnPwr                 // downstream signal power (dBm)
	FUpPwr                 // upstream signal power (dBm)
	FDnNMR                 // downstream noise margin (dB)
	FUpNMR                 // upstream noise margin (dB)
	FDnAten                // downstream signal attenuation (dB)
	FUpAten                // upstream signal attenuation (dB)
	FDnRelCap              // downstream relative capacity (%)
	FUpRelCap              // upstream relative capacity (%)
	FDnCVCnt1              // code violation count, low threshold
	FDnCVCnt2              // code violation count, mid threshold
	FDnCVCnt3              // code violation count, high threshold
	FDnESCnt1              // seconds with code violations, low threshold
	FDnESCnt2              // seconds with code violations, high threshold
	FDnFECCnt1             // forward error correction count (>= 50 clamps)
	FHiCar                 // biggest usable carrier number
	FBT                    // 1 if a bridge tap is present
	FCrosstalk             // 1 if crosstalk detected
	FLoopLength            // estimated loop length (ft)
	FDnMaxAttainFBR        // maximum attainable downstream fast bit rate (kbps)
	FUpMaxAttainFBR        // maximum attainable upstream fast bit rate (kbps)
	FDnCells               // rolling count of downstream cells
	FUpCells               // rolling count of upstream cells

	NumBasicFeatures
)

// BasicFeatureNames holds the Table 2 feature mnemonics, indexed by the
// F* constants.
var BasicFeatureNames = [NumBasicFeatures]string{
	"state", "dnbr", "upbr", "dnpwr", "uppwr", "dnnmr", "upnmr",
	"dnaten", "upaten", "dnrelcap", "uprelcap",
	"dncvcnt1", "dncvcnt2", "dncvcnt3", "dnescnt1", "dnescnt2", "dnfeccnt1",
	"hicar", "bt", "crosstalk", "looplength",
	"dnmaxattainfbr", "upmaxattainfbr", "dncells", "upcells",
}

// CategoricalBasicFeature reports whether a Table 2 feature is categorical
// (binary); the rest are continuous. Categorical variables are expanded to
// binary indicators before derived features are formed (§4.2, footnote 2).
func CategoricalBasicFeature(f int) bool {
	switch f {
	case FState, FBT, FCrosstalk:
		return true
	}
	return false
}

// Measurement is the result of one weekly line test for one line. When the
// modem was off during the test the record is Missing and the feature vector
// holds only the static line attributes the DSLAM can still infer. Line and
// Week name the record that wrote a grid cell; a cell no record has written
// reads Missing with Line and Week both -1.
type Measurement struct {
	Line    LineID // the record's line; -1 for no record
	Week    int    // measurement week, 0..Weeks-1; -1 for no record
	Missing bool   // modem off: no conversation, no record (paper §4.2 "modem feature")
	F       [NumBasicFeatures]float32
}

// TicketCategory is the coarse label a customer agent assigns to a ticket
// (§3.3, information source 2). Only customer-edge tickets feed NEVERMIND.
type TicketCategory uint8

const (
	CatCustomerEdge TicketCategory = iota // technical customer-edge problem
	CatBilling                            // billing and account issues
	CatOther                              // provisioning, misdials, ...
)

func (c TicketCategory) String() string {
	switch c {
	case CatCustomerEdge:
		return "customer-edge"
	case CatBilling:
		return "billing"
	default:
		return "other"
	}
}

// Ticket is a customer-reported problem.
type Ticket struct {
	ID       int
	Line     LineID
	Day      int // arrival day index
	Category TicketCategory
}

// TicketLess is the canonical total order on tickets: (Day, Line, ID,
// Category). Day-major preserves the sorted-by-day contract every consumer
// relies on; the full tie-break makes the order a function of the ticket
// multiset alone, so serving snapshots and checkpoints sort identically
// regardless of shard sweep order.
func TicketLess(a, b Ticket) bool {
	if a.Day != b.Day {
		return a.Day < b.Day
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Category < b.Category
}

// DispositionNote summarises one field dispatch (§3.3, information source 3):
// which device was finally identified as the cause, when, and how long the
// visit took. Disposition codes index the catalog in internal/faults; they
// are noisy ground truth (the paper: "determined based on the expert
// knowledge of the technicians and hence can be very noisy").
type DispositionNote struct {
	TicketID    int
	Line        LineID
	Day         int // dispatch day
	Disposition int // faults.DispositionID
	TestsRun    int // number of locations the technician tested
}

// Profile is a subscriber service profile (§3.3, information source 4): the
// expected line parameters for the service tier the customer pays for.
type Profile struct {
	Name   string
	DnKbps float64 // expected downstream rate
	UpKbps float64 // expected upstream rate
}

// The service tiers offered in the simulated network. The first two mirror
// the paper's examples: basic 768/384 and advanced 2500/768.
var (
	ProfileBasic    = Profile{Name: "basic", DnKbps: 768, UpKbps: 384}
	ProfileAdvanced = Profile{Name: "advanced", DnKbps: 2500, UpKbps: 768}
	ProfilePlus     = Profile{Name: "plus", DnKbps: 1500, UpKbps: 512}
	ProfileElite    = Profile{Name: "elite", DnKbps: 6000, UpKbps: 768}

	// Profiles lists all tiers; indexes are stable and used as the
	// categorical profile id in feature encoding.
	Profiles = []Profile{ProfileBasic, ProfilePlus, ProfileAdvanced, ProfileElite}
)

// Outage is a network outage event at a DSLAM (§2.2): a problem between the
// BRAS and the DSLAM that affects every line the DSLAM serves.
type Outage struct {
	DSLAM    int
	StartDay int
	EndDay   int // inclusive
}

// Active reports whether the outage covers the given day.
func (o Outage) Active(day int) bool { return day >= o.StartDay && day <= o.EndDay }
