package serve

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/features"
	"nevermind/internal/ml"
	"nevermind/internal/rng"
)

// carryFirstWeek..carryLastWeek are the week tables the carry tests keep
// resident: the weeks a care desk reads, ending at the newest ingested week.
const carryFirstWeek, carryLastWeek = 35, 43

// assertTablesIdentical compares a served table with a from-scratch one bit
// for bit: scores, probabilities, each line's rendered fragment bytes and
// the ranked order.
func assertTablesIdentical(t *testing.T, tag string, got *weekTable, gotSn *Snapshot, want *weekTable, wantSn *Snapshot) {
	t.Helper()
	if len(got.scores) != len(want.scores) || len(got.probs) != len(want.probs) {
		t.Fatalf("%s: table covers %d lines, rebuild %d", tag, len(got.scores), len(want.scores))
	}
	var gf, wf []byte
	for l := range want.scores {
		if math.Float64bits(got.scores[l]) != math.Float64bits(want.scores[l]) ||
			math.Float64bits(got.probs[l]) != math.Float64bits(want.probs[l]) {
			t.Fatalf("%s: line %d scored %v/%v, rebuild %v/%v", tag, l,
				got.scores[l], got.probs[l], want.scores[l], want.probs[l])
		}
		gf, wf = got.appendFrag(gf[:0], data.LineID(l)), want.appendFrag(wf[:0], data.LineID(l))
		if !bytes.Equal(gf, wf) {
			t.Fatalf("%s: line %d fragment %s, rebuild %s", tag, l, gf, wf)
		}
	}
	gr, wr := got.rankedLines(gotSn, math.MaxInt), want.rankedLines(wantSn, math.MaxInt)
	if len(gr) != len(wr) {
		t.Fatalf("%s: ranked %d lines, rebuild %d", tag, len(gr), len(wr))
	}
	for i := range wr {
		if gr[i] != wr[i] {
			t.Fatalf("%s: ranked[%d] = line %d, rebuild line %d", tag, i, gr[i], wr[i])
		}
	}
}

// currentRecord re-delivers the snapshot's (line, week) cell and attributes
// unchanged, as a retried feed would.
func currentRecord(sn *Snapshot, l data.LineID, w int) TestRecord {
	m := sn.DS.At(l, w)
	return TestRecord{
		Line: l, Week: w, Missing: m.Missing, F: append([]float32(nil), m.F[:]...),
		Profile: sn.DS.ProfileOf[l], DSLAM: sn.DS.DSLAMOf[l], Usage: sn.DS.UsageOf[l],
	}
}

// encodeWeek encodes every line of the snapshot at week w with the Table 3
// base columns (every derived column is a function of these).
func encodeWeek(t *testing.T, sn *Snapshot, w, historyWeeks int) *features.Encoded {
	t.Helper()
	examples := make([]features.Example, sn.DS.NumLines)
	for l := range examples {
		examples[l] = features.Example{Line: data.LineID(l), Week: w}
	}
	enc, err := features.Encode(sn.DS, sn.Ix, examples, features.Config{HistoryWeeks: historyWeeks})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// reencoded returns the lines whose encoded rows differ bit for bit.
func reencoded(a, b *features.Encoded) []data.LineID {
	var out []data.LineID
	for i := range a.Examples {
		for c := range a.Cols {
			if math.Float32bits(a.Cols[c].Values[i]) != math.Float32bits(b.Cols[c].Values[i]) {
				out = append(out, a.Examples[i].Line)
				break
			}
		}
	}
	return out
}

// TestWeekTableCarryEquivalence is the carry rule's property test. A served
// store keeps the desk weeks' tables resident across randomized deltas —
// overwritten values, Missing flips, profile changes, tickets on either side
// of a week's Saturday, backfills of old weeks, identical re-deliveries, grid
// widening and hot reloads — and after each one every table the delta-applied
// snapshot serves (shared, patched or rebuilt) must equal the table a
// ResetSnapshotCache rebuild of the same state builds from scratch. The
// rebuilds run on a twin store fed the same batches, so the served store's
// carry chain is never cut short by the check itself.
//
// Scores only show what the model reads, so the rule is also checked against
// the encoder itself: a shared table's week must re-encode identically for
// every line, and a patched table's dirty set must cover every line whose
// encoding moved. A few lines stay dark (Missing all window), so they impute
// from the week's fallback and make the drop rule observable.
func TestWeekTableCarryEquivalence(t *testing.T) {
	ds, pred, _ := fixture(t)
	predPath := filepath.Join(t.TempDir(), "pred.gob.gz")
	if err := pred.Save(predPath); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Shards: 4, PredictorPath: predPath})
	st, twin := srv.Store(), NewStore(4)
	ingest := func(tests []TestRecord, tickets []TicketRecord) {
		t.Helper()
		for _, s := range []*Store{st, twin} {
			if _, err := s.IngestTests(tests); err != nil {
				t.Fatal(err)
			}
			if _, err := s.IngestTickets(tickets); err != nil {
				t.Fatal(err)
			}
		}
	}
	tests, tickets := recordsFor(ds, 30, carryLastWeek)
	for i := range tests {
		if tests[i].Line%150 == 7 {
			tests[i].Missing = true
		}
	}
	ingest(tests, tickets)

	r := rng.Derive(7, 0xca77)
	ticketID := 1 << 30 // above every simulated ticket id
	var shared, patched, dropped int
	sn := st.Snapshot()
	hist := pred.Cfg.HistoryWeeks
	encoded := make(map[int]*features.Encoded)
	for w := carryFirstWeek; w <= carryLastWeek; w++ {
		encoded[w] = encodeWeek(t, sn, w, hist)
	}
	for step := 0; step < 16; step++ {
		models := srv.Models()
		for w := carryFirstWeek; w <= carryLastWeek; w++ {
			if _, err := sn.scoreTable(models, w); err != nil {
				t.Fatal(err)
			}
		}
		base := sn
		kind := step % 8
		var tests []TestRecord
		var tickets []TicketRecord
		lines := make([]data.LineID, 1+r.Intn(40))
		for i := range lines {
			lines[i] = data.LineID(r.Intn(base.DS.NumLines))
		}
		week := carryFirstWeek - 2 + r.Intn(carryLastWeek-carryFirstWeek+3)
		switch kind {
		case 0: // overwritten values
			for _, l := range lines {
				rec := currentRecord(base, l, week)
				rec.Missing = false
				for j := range rec.F {
					rec.F[j] += float32(r.Intn(5) + 1)
				}
				tests = append(tests, rec)
			}
		case 1: // Missing flips
			for _, l := range lines {
				rec := currentRecord(base, l, week)
				rec.Missing = !rec.Missing
				tests = append(tests, rec)
			}
		case 2: // profile changes, measurements re-delivered unchanged
			for _, l := range lines {
				rec := currentRecord(base, l, week)
				rec.Missing = false
				rec.Profile = uint8((int(rec.Profile) + 1 + r.Intn(len(data.Profiles)-1)) % len(data.Profiles))
				tests = append(tests, rec)
			}
		case 3: // customer tickets the day before, on and after a Saturday
			for _, l := range lines {
				ticketID++
				tickets = append(tickets, TicketRecord{
					ID: ticketID, Line: l, Day: data.SaturdayOf(week) - 1 + r.Intn(3),
					Category: uint8(data.CatCustomerEdge),
				})
			}
		case 4: // backfill of weeks before the preload
			old := 10 + r.Intn(20)
			for _, l := range lines {
				m := ds.At(l, old)
				tests = append(tests, TestRecord{Line: l, Week: old, Missing: m.Missing, F: m.F[:],
					Profile: base.DS.ProfileOf[l], DSLAM: base.DS.DSLAMOf[l], Usage: base.DS.UsageOf[l]})
			}
		case 5: // identical re-delivery of the newest week (a feed retry)
			for _, l := range lines {
				tests = append(tests, currentRecord(base, l, carryLastWeek))
			}
		case 6: // grid widening: a brand-new line past the grid
			tests = append(tests, TestRecord{Line: data.LineID(base.DS.NumLines + r.Intn(3)), Week: week,
				F: []float32{1, 2, 3}})
		case 7: // hot reload: a new model generation, same model bits
			if _, err := srv.Reload(); err != nil {
				t.Fatal(err)
			}
		}
		ingest(tests, tickets)
		sn = st.Snapshot()
		models = srv.Models()
		for w := carryFirstWeek; w <= carryLastWeek; w++ {
			if sn == base {
				break
			}
			k := tabKey{models: models, week: w}
			sn.tabMu.Lock()
			carried := sn.carry[k]
			sn.tabMu.Unlock()
			enc := encodeWeek(t, sn, w, hist)
			if kind == 6 {
				if carried != nil {
					t.Fatalf("step %d: a full rebuild carried the week %d table", step, w)
				}
				encoded[w] = enc
				continue
			}
			moved := reencoded(encoded[w], enc)
			encoded[w] = enc
			switch {
			case carried == nil:
				dropped++
			case carried == base.tabs[k]:
				shared++
				if len(moved) > 0 {
					t.Fatalf("step %d (kind %d): week %d table shared, but lines %v re-encode differently", step, kind, w, moved)
				}
			default:
				patched++
				for _, l := range moved {
					i := sort.Search(len(carried.dirty), func(i int) bool { return carried.dirty[i] >= l })
					if i == len(carried.dirty) || carried.dirty[i] != l {
						t.Fatalf("step %d (kind %d): week %d table patched, but line %d re-encodes differently and is not dirty", step, kind, w, l)
					}
				}
			}
		}

		twin.ResetSnapshotCache()
		ref := twin.Snapshot()
		if ref.Version != sn.Version {
			t.Fatalf("step %d: twin at version %d, served store at %d", step, ref.Version, sn.Version)
		}
		for w := carryFirstWeek; w <= carryLastWeek; w++ {
			got, err := sn.scoreTable(models, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.scoreTable(models, w)
			if err != nil {
				t.Fatal(err)
			}
			assertTablesIdentical(t, fmt.Sprintf("step %d (kind %d) week %d", step, kind, w), got, sn, want, ref)
		}
	}
	t.Logf("%d patched, %d dropped, %d shared tables", patched, dropped, shared)
	if patched == 0 || dropped == 0 || shared == 0 {
		t.Fatalf("the deltas exercised %d patched, %d dropped and %d shared tables; want every path", patched, dropped, shared)
	}
}

// TestCarryRescoresOnlyDirtyLines pins the mechanism: after a 100-record
// re-ingest at week 43 with the week 35-43 tables resident, tables 35-42 are
// the base's own pointers, table 43 is a new table, and the only rows scored
// are the dirty lines — not 9 x NumLines.
func TestCarryRescoresOnlyDirtyLines(t *testing.T) {
	srv := allocServer(t)
	st, models := srv.Store(), srv.Models()
	base := st.Snapshot()
	resident := make(map[int]*weekTable)
	for w := carryFirstWeek; w <= carryLastWeek; w++ {
		tab, err := base.scoreTable(models, w)
		if err != nil {
			t.Fatal(err)
		}
		tab.rankedLines(base, math.MaxInt)
		resident[w] = tab
	}

	const dirty = 100
	perm := rng.Derive(7, 0xd1).Perm(base.DS.NumLines)
	recs := make([]TestRecord, dirty)
	for i := range recs {
		recs[i] = currentRecord(base, data.LineID(perm[i]), carryLastWeek)
	}
	if _, err := st.IngestTests(recs); err != nil {
		t.Fatal(err)
	}

	var rows atomic.Int64
	ml.SetScoreObserver(func(n int, _ time.Duration) { rows.Add(int64(n)) })
	t.Cleanup(func() { ml.SetScoreObserver(nil) })
	sn := st.Snapshot()
	if sn == base {
		t.Fatal("the re-ingest did not produce a new snapshot")
	}
	for w := carryFirstWeek; w <= carryLastWeek; w++ {
		tab, err := sn.scoreTable(models, w)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case w < carryLastWeek && tab != resident[w]:
			t.Errorf("week %d: table rebuilt or copied; want the base's table shared", w)
		case w == carryLastWeek && tab == resident[w]:
			t.Errorf("week %d: the base's table was shared across a delta that touched the week", w)
		}
	}
	if got := rows.Load(); got != dirty {
		t.Fatalf("serving 9 week tables after a %d-line re-ingest scored %d rows, want %d (a rebuild scores %d)",
			dirty, got, dirty, 9*sn.DS.NumLines)
	}

	// A re-delivery changes no value, so the patched table must match both
	// its base and a from-scratch rebuild bit for bit.
	tab, _ := sn.scoreTable(models, carryLastWeek)
	assertTablesIdentical(t, "patched vs base", tab, sn, resident[carryLastWeek], base)
	st.ResetSnapshotCache()
	ref := st.Snapshot()
	want, err := ref.scoreTable(models, carryLastWeek)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesIdentical(t, "patched vs rebuild", tab, sn, want, ref)
}

// rankTestScores returns a score column over size lines that forces ties:
// a few distinct values, +0 beside -0, and dark lines that all score the
// week's fallback.
func rankTestScores(r *rng.RNG, size int) []float64 {
	scores := make([]float64, size)
	fallback := r.Normal(0, 1)
	for l := range scores {
		switch r.Intn(5) {
		case 0:
			scores[l] = fallback
		case 1:
			scores[l] = 0
		case 2:
			scores[l] = math.Copysign(0, -1)
		default:
			scores[l] = float64(r.Intn(40))/8 - 2.5
		}
	}
	return scores
}

// rankTestLines picks n of the column's lines, ascending, as a week's
// present population: the table covers absent lines too.
func rankTestLines(r *rng.RNG, scores []float64, n int) []data.LineID {
	perm := r.Perm(len(scores))[:n]
	slices.Sort(perm)
	lines := make([]data.LineID, n)
	for i, l := range perm {
		lines[i] = data.LineID(l)
	}
	return lines
}

// referenceRank is the order the table served before it packed keys: a
// sort.Slice over line ids by (score desc, line asc).
func referenceRank(scores []float64, lines []data.LineID) []data.LineID {
	want := slices.Clone(lines)
	sort.Slice(want, func(a, b int) bool {
		if scores[want[a]] != scores[want[b]] {
			return scores[want[a]] > scores[want[b]]
		}
		return want[a] < want[b]
	})
	return want
}

// rankTestTable is a built week-3 table over scores whose snapshot presents
// lines at that week.
func rankTestTable(scores []float64, lines []data.LineID) (*weekTable, *Snapshot) {
	sn := &Snapshot{}
	sn.linesAt[3] = lines
	return &weekTable{week: 3, scores: scores}, sn
}

// TestRankByScoreMatchesSort: ranking from packed keys gives, line for
// line, the order the table served before it, the reference sort. For every
// n from 1 to the population plus one, a fresh table's rankedLines(sn, n) is
// the reference's first n lines, including the whole population, where the
// heap holds every key; the largest population is checked at a spread of n.
func TestRankByScoreMatchesSort(t *testing.T) {
	r := rng.Derive(29, 0)
	for _, pop := range []int{0, 1, 2, 3, 17, 300, 1023, 32768} {
		scores := rankTestScores(r, pop+pop/3)
		lines := rankTestLines(r, scores, pop)
		want := referenceRank(scores, lines)
		if got := rankByScore(scores, lines, pop); !slices.Equal(got, want) {
			t.Fatalf("%d lines: packed-key rank differs from the reference sort", pop)
		}
		ns := []int{1, 2, 50, 655, pop - 1, pop, pop + 1}
		if pop <= 1023 {
			ns = ns[:0]
			for n := 1; n <= pop+1; n++ {
				ns = append(ns, n)
			}
		}
		for _, n := range ns {
			tab, sn := rankTestTable(scores, lines)
			if got := tab.rankedLines(sn, n); !slices.Equal(got, want[:min(n, pop)]) {
				t.Fatalf("%d lines, n=%d: ranked %v, want the reference's first %d", pop, n, got, min(n, pop))
			}
		}
	}
}

// TestRankedLinesPrefixes: on one table, requests for 50, 400, 50 and the
// whole population return prefixes of one order, the reference's; a longer
// request replaces the kept prefix without rewriting it, so every slice
// returned earlier still reads the same lines.
func TestRankedLinesPrefixes(t *testing.T) {
	r := rng.Derive(31, 0)
	scores := rankTestScores(r, 6000)
	lines := rankTestLines(r, scores, 4500)
	want := referenceRank(scores, lines)
	tab, sn := rankTestTable(scores, lines)
	var got [][]data.LineID
	for _, n := range []int{50, 400, 50, len(lines)} {
		ranked := tab.rankedLines(sn, n)
		if !slices.Equal(ranked, want[:n]) {
			t.Fatalf("n=%d after %d requests: not the reference's first %d lines", n, len(got), n)
		}
		got = append(got, ranked)
	}
	for i, ranked := range got {
		if !slices.Equal(ranked, want[:len(ranked)]) {
			t.Fatalf("request %d's %d lines were rewritten by a later request", i, len(ranked))
		}
	}
	if &got[2][0] != &got[1][0] {
		t.Fatal("n=50 after n=400 was ranked again; want a slice of the kept prefix")
	}
}

// TestRankedLinesConcurrent: concurrent requests for different n on one
// table each get the reference's first n lines (under make race, the kept
// prefix's handoff is checked too).
func TestRankedLinesConcurrent(t *testing.T) {
	r := rng.Derive(37, 0)
	scores := rankTestScores(r, 5000)
	lines := rankTestLines(r, scores, 4000)
	want := referenceRank(scores, lines)
	tab, sn := rankTestTable(scores, lines)
	ns := []int{50, 655, 1, 4000, 200, 3999, 50, 4001}
	errs := make(chan error, len(ns))
	for _, n := range ns {
		go func() {
			ranked := tab.rankedLines(sn, n)
			if !slices.Equal(ranked, want[:min(n, len(lines))]) {
				errs <- fmt.Errorf("n=%d: not the reference's first %d lines", n, min(n, len(lines)))
				return
			}
			errs <- nil
		}()
	}
	for range ns {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
