package serve

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/rng"
	"nevermind/internal/wal"
)

// TestIngestTicketsLocksOncePerShard pins the batching fix: a ticket batch
// takes each shard's lock once, so a batch that finds the (single) shard
// busy records exactly one contended acquisition — the old per-record
// locking paid a lock round-trip per ticket and could contend on every one.
func TestIngestTicketsLocksOncePerShard(t *testing.T) {
	s := NewStore(1) // one shard: the whole batch is one lock acquisition
	m := newMetrics()
	s.setMetrics(m)
	contended := m.shardContended.With("ingest_tickets")

	const batches = 10
	const perBatch = 200
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // competing lock holder: makes batches actually wait
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.shards[0].mu.Lock()
			time.Sleep(200 * time.Microsecond)
			s.shards[0].mu.Unlock()
		}
	}()
	total := 0
	for b := 0; b < batches; b++ {
		recs := make([]TicketRecord, perBatch)
		for i := range recs {
			recs[i] = TicketRecord{ID: b*perBatch + i, Line: data.LineID(i % 64), Day: i % data.DaysInYear}
		}
		n, err := s.IngestTickets(recs)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	close(stop)
	wg.Wait()
	if got := contended.Value(); got > batches {
		t.Errorf("ticket ingest contended %d times for %d single-shard batches; the batch must lock once per shard", got, batches)
	}
	if total != batches*perBatch {
		t.Fatalf("ingested %d tickets, want %d", total, batches*perBatch)
	}
}

// TestSnapshotSingleflight pins the thundering-herd fix: concurrent readers
// missing the cache at the same version produce exactly one build — the rest
// wait for it and share the result.
func TestSnapshotSingleflight(t *testing.T) {
	s := NewStore(4)
	var builds atomic.Int64
	s.SetFaults(&FaultHooks{SnapshotBuild: func(version uint64) error {
		builds.Add(1)
		time.Sleep(time.Millisecond) // widen the window the herd would pile into
		return nil
	}})
	if _, err := s.IngestTests([]TestRecord{{Line: 1, Week: 3}, {Line: 9, Week: 3}}); err != nil {
		t.Fatal(err)
	}

	const readers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	snaps := make([]*Snapshot, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			snaps[i] = s.Snapshot()
		}(i)
	}
	close(start)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Errorf("%d concurrent Snapshot calls ran %d builds, want 1", readers, got)
	}
	for i, sn := range snaps {
		if sn != snaps[0] {
			t.Fatalf("reader %d got a different snapshot pointer", i)
		}
	}
}

// TestLinesAtCached pins the /v1/rank hot-path fix: LinesAt returns the
// snapshot's precomputed per-week list — the same backing array on every
// call, no per-call population scan — and the list matches the presence
// matrix exactly.
func TestLinesAtCached(t *testing.T) {
	s := NewStore(2)
	if _, err := s.IngestTests([]TestRecord{
		{Line: 3, Week: 10}, {Line: 7, Week: 10}, {Line: 5, Week: 11},
	}); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	a := sn.LinesAt(10)
	b := sn.LinesAt(10)
	if len(a) != 2 || a[0] != 3 || a[1] != 7 {
		t.Fatalf("LinesAt(10) = %v, want [3 7]", a)
	}
	if &a[0] != &b[0] {
		t.Error("LinesAt rebuilt its result; want the cached slice")
	}
	if got := sn.LinesAt(-1); got != nil {
		t.Errorf("LinesAt(-1) = %v, want nil", got)
	}
	if got := sn.LinesAt(data.Weeks); got != nil {
		t.Errorf("LinesAt(Weeks) = %v, want nil", got)
	}
	for w := 0; w < data.Weeks; w++ {
		var want []data.LineID
		for _, l := range sn.Lines {
			if sn.Present[w][l] {
				want = append(want, l)
			}
		}
		got := sn.LinesAt(w)
		if len(got) != len(want) {
			t.Fatalf("week %d: LinesAt %v, presence scan %v", w, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("week %d: LinesAt %v, presence scan %v", w, got, want)
			}
		}
	}
}

// assertSnapshotsIdentical deep-compares two snapshots cell for cell: the
// delta-vs-full equivalence contract is bit-identity, not approximation.
func assertSnapshotsIdentical(t *testing.T, tag string, a, b *Snapshot) {
	t.Helper()
	if a.Version != b.Version {
		t.Fatalf("%s: versions %d vs %d", tag, a.Version, b.Version)
	}
	if a.DS.NumLines != b.DS.NumLines || a.DS.NumDSLAMs != b.DS.NumDSLAMs {
		t.Fatalf("%s: header diverged: lines %d/%d dslams %d/%d", tag,
			a.DS.NumLines, b.DS.NumLines, a.DS.NumDSLAMs, b.DS.NumDSLAMs)
	}
	if len(a.Lines) != len(b.Lines) {
		t.Fatalf("%s: %d vs %d lines", tag, len(a.Lines), len(b.Lines))
	}
	for i := range a.Lines {
		if a.Lines[i] != b.Lines[i] {
			t.Fatalf("%s: Lines[%d] %d vs %d", tag, i, a.Lines[i], b.Lines[i])
		}
	}
	for l := 0; l < a.DS.NumLines; l++ {
		if a.DS.ProfileOf[l] != b.DS.ProfileOf[l] || a.DS.DSLAMOf[l] != b.DS.DSLAMOf[l] || a.DS.UsageOf[l] != b.DS.UsageOf[l] {
			t.Fatalf("%s: attrs diverged at line %d", tag, l)
		}
	}
	for w := 0; w < data.Weeks; w++ {
		la, lb := a.LinesAt(w), b.LinesAt(w)
		if len(la) != len(lb) {
			t.Fatalf("%s: week %d: %d vs %d present lines", tag, w, len(la), len(lb))
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("%s: week %d: LinesAt[%d] %d vs %d", tag, w, i, la[i], lb[i])
			}
		}
		for l := 0; l < a.DS.NumLines; l++ {
			if a.Present[w][l] != b.Present[w][l] {
				t.Fatalf("%s: presence diverged at (%d,%d)", tag, w, l)
			}
			if *a.DS.At(data.LineID(l), w) != *b.DS.At(data.LineID(l), w) {
				t.Fatalf("%s: grid cell diverged at (%d,%d)", tag, w, l)
			}
		}
	}
	if len(a.DS.Tickets) != len(b.DS.Tickets) {
		t.Fatalf("%s: %d vs %d tickets", tag, len(a.DS.Tickets), len(b.DS.Tickets))
	}
	for i := range a.DS.Tickets {
		if a.DS.Tickets[i] != b.DS.Tickets[i] {
			t.Fatalf("%s: Tickets[%d] %+v vs %+v", tag, i, a.DS.Tickets[i], b.DS.Tickets[i])
		}
	}
}

// TestDeltaSnapshotEquivalence is the delta-correctness property test:
// under randomized ingest sequences — growing populations (width-growth
// full rebuilds), overwritten cells, duplicate tickets, batches of every
// size — with rebuild faults injected a third of the time (so delta chains
// of every length get applied), a delta-derived snapshot must be
// bit-identical to a from-scratch rebuild of the same store state.
func TestDeltaSnapshotEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s := NewStore(4)
			s.setMetrics(newMetrics()) // feeds the build-kind counters asserted below
			var faultsOn atomic.Bool
			var seq atomic.Uint64
			faultsOn.Store(true)
			s.SetFaults(&FaultHooks{SnapshotBuild: func(version uint64) error {
				if faultsOn.Load() && rng.Derive(seed, 99, seq.Add(1)).Float64() < 0.33 {
					return Transient(fmt.Errorf("injected build fault"))
				}
				return nil
			}})
			r := rng.Derive(seed, 0, 0)
			maxLine := 8 // population grows as the run proceeds
			for step := 0; step < 120; step++ {
				switch r.Intn(4) {
				case 0, 1: // test batch, occasionally widening the grid
					if r.Bool(0.2) {
						maxLine += r.Intn(40)
					}
					n := 1 + r.Intn(24)
					recs := make([]TestRecord, n)
					for i := range recs {
						recs[i] = TestRecord{
							Line:    data.LineID(r.Intn(maxLine)),
							Week:    r.Intn(data.Weeks),
							Missing: r.Bool(0.2),
							F:       []float32{float32(step), float32(i)},
							Profile: uint8(r.Intn(len(data.Profiles))),
							DSLAM:   int32(r.Intn(6)),
							Usage:   float32(r.Float64()),
						}
					}
					if _, err := s.IngestTests(recs); err != nil {
						t.Fatal(err)
					}
				case 2: // ticket batch, with deliberate duplicates
					n := 1 + r.Intn(8)
					recs := make([]TicketRecord, n)
					for i := range recs {
						recs[i] = TicketRecord{
							// A small ID space re-serves identical tickets
							// across batches, exercising the dedup paths.
							ID:       r.Intn(64),
							Line:     data.LineID(r.Intn(maxLine)),
							Day:      r.Intn(data.DaysInYear),
							Category: uint8(r.Intn(int(data.CatOther) + 1)),
						}
					}
					if _, err := s.IngestTickets(recs); err != nil {
						t.Fatal(err)
					}
				case 3: // reader: advances the snapshot (or fails, growing the delta chain)
					s.Snapshot()
				}

				// A store with only tickets has no grid and serves a nil
				// snapshot by contract; checkpoints need at least one line.
				if (step%17 == 0 || step == 119) && s.NumLines() > 0 {
					// Checkpoint: force a fresh (delta-derived where possible)
					// snapshot, then a from-scratch rebuild of the same state.
					faultsOn.Store(false)
					inc := s.Snapshot()
					if inc == nil || inc.Version != s.Version() {
						t.Fatalf("step %d: no fresh snapshot with faults off", step)
					}
					s.ResetSnapshotCache()
					full := s.Snapshot()
					faultsOn.Store(true)
					assertSnapshotsIdentical(t, fmt.Sprintf("step %d", step), inc, full)
					if err := full.DS.Validate(); err != nil {
						t.Fatalf("step %d: full rebuild invalid: %v", step, err)
					}
					if err := inc.DS.Validate(); err != nil {
						t.Fatalf("step %d: delta snapshot invalid: %v", step, err)
					}
				}
			}
			if got := s.snapshotKindCount(); got.delta == 0 {
				t.Errorf("run never applied a delta (%d full builds); the property went untested", got.full)
			}
		})
	}
}

// snapshotKinds reports how many successful builds of each kind a store ran;
// test-only introspection backed by the same counters /metrics exports.
type snapshotKinds struct{ full, delta int64 }

func (s *Store) snapshotKindCount() snapshotKinds {
	if s.m == nil {
		return snapshotKinds{}
	}
	return snapshotKinds{
		full:  s.m.snapshotBuilds.With("full").Value(),
		delta: s.m.snapshotBuilds.With("delta").Value(),
	}
}

// modelLine is the map model's view of one line: the attributes the store
// must show and every cell ingested for it.
type modelLine struct {
	profile uint8
	dslam   int32
	usage   float32
	cells   map[int]data.Measurement
}

// storeModel replays ingest batches into plain maps, with the store's rules
// for attributes (a Missing record only seeds a new line's) and tickets
// (exact duplicates ingest once).
type storeModel struct {
	lines   map[data.LineID]*modelLine
	tickets map[data.Ticket]bool
}

func (m *storeModel) apply(tests []TestRecord, tickets []TicketRecord) {
	for _, r := range tests {
		ml := m.lines[r.Line]
		if ml == nil {
			ml = &modelLine{cells: make(map[int]data.Measurement)}
			m.lines[r.Line] = ml
			ml.profile, ml.dslam, ml.usage = r.Profile, r.DSLAM, r.Usage
		} else if !r.Missing {
			ml.profile, ml.dslam, ml.usage = r.Profile, r.DSLAM, r.Usage
		}
		c := data.Measurement{Line: r.Line, Week: r.Week, Missing: r.Missing}
		copy(c.F[:], r.F)
		ml.cells[r.Week] = c
	}
	for _, r := range tickets {
		m.tickets[data.Ticket{ID: r.ID, Line: r.Line, Day: r.Day, Category: data.TicketCategory(r.Category)}] = true
	}
}

// assertSnapshotMatchesModel requires sn to hold exactly the model: every
// cell (a cell no record reached is the no-record default), presence, line
// lists, attributes, DSLAM count and the tickets whose line fits the grid.
func assertSnapshotMatchesModel(t *testing.T, tag string, sn *Snapshot, m *storeModel) {
	t.Helper()
	n := 0
	var lines []data.LineID
	maxDSLAM := int32(0)
	for l, ml := range m.lines {
		n = max(n, int(l)+1)
		lines = append(lines, l)
		maxDSLAM = max(maxDSLAM, ml.dslam)
	}
	slices.Sort(lines)
	if sn.DS.NumLines != n || sn.DS.NumDSLAMs != int(maxDSLAM)+1 || !slices.Equal(sn.Lines, lines) {
		t.Fatalf("%s: %d lines, %d DSLAMs, lines %v; model %d, %d, %v", tag,
			sn.DS.NumLines, sn.DS.NumDSLAMs, sn.Lines, n, maxDSLAM+1, lines)
	}
	if err := sn.DS.Validate(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	for w := 0; w < data.Weeks; w++ {
		var at []data.LineID
		for l := data.LineID(0); int(l) < n; l++ {
			ml := m.lines[l]
			want, ok := data.Measurement{Line: -1, Week: -1, Missing: true}, false
			if ml != nil {
				if c, in := ml.cells[w]; in {
					want, ok = c, true
					at = append(at, l)
				}
			}
			if got := *sn.DS.At(l, w); got != want {
				t.Fatalf("%s: cell (%d,%d) = %+v, model %+v", tag, l, w, got, want)
			}
			if sn.Present[w][l] != ok {
				t.Fatalf("%s: presence (%d,%d) = %v, model %v", tag, l, w, sn.Present[w][l], ok)
			}
		}
		if !slices.Equal(sn.LinesAt(w), at) {
			t.Fatalf("%s: week %d lines %v, model %v", tag, w, sn.LinesAt(w), at)
		}
	}
	for l := data.LineID(0); int(l) < n; l++ {
		var want modelLine
		if ml := m.lines[l]; ml != nil {
			want = *ml
		}
		if sn.DS.ProfileOf[l] != want.profile || sn.DS.DSLAMOf[l] != want.dslam || sn.DS.UsageOf[l] != want.usage {
			t.Fatalf("%s: line %d attributes (%d,%d,%v), model (%d,%d,%v)", tag, l,
				sn.DS.ProfileOf[l], sn.DS.DSLAMOf[l], sn.DS.UsageOf[l], want.profile, want.dslam, want.usage)
		}
	}
	var tickets []data.Ticket
	edge := make(map[data.LineID]int)
	for tk := range m.tickets {
		if int(tk.Line) < n {
			tickets = append(tickets, tk)
			if tk.Category == data.CatCustomerEdge {
				edge[tk.Line]++
			}
		}
	}
	sortTickets(tickets)
	if !slices.Equal(sn.DS.Tickets, tickets) {
		t.Fatalf("%s: %d tickets, model %d", tag, len(sn.DS.Tickets), len(tickets))
	}
	for l := data.LineID(0); int(l) < n; l++ {
		if sn.Ix.Count(l) != edge[l] {
			t.Fatalf("%s: ticket index counts %d customer-edge tickets on line %d, model %d", tag, sn.Ix.Count(l), l, edge[l])
		}
	}
}

// TestPublishedSnapshotsImmutable: a published snapshot never changes. A
// randomized run — overwritten cells, Missing flips, attribute changes,
// grid widening across chunks and shards, tickets on lines past the grid,
// WAL-record replay, cache resets and injected publish faults — keeps every
// snapshot any read returned. At the end each one must still equal a map
// model of the records ingested up to its version, cell for cell: a later
// write leaking into a chunk a snapshot shares, or a cell landing anywhere
// but its own (line, week), both show.
func TestPublishedSnapshotsImmutable(t *testing.T) {
	s := NewStore(4)
	var seq atomic.Uint64
	s.SetFaults(&FaultHooks{SnapshotBuild: func(uint64) error {
		if rng.Derive(11, 0xfa, seq.Add(1)).Float64() < 0.3 {
			return Transient(fmt.Errorf("injected publish fault"))
		}
		return nil
	}})
	type batch struct {
		version uint64
		tests   []TestRecord
		tickets []TicketRecord
	}
	var history []batch
	var kept []*Snapshot
	r := rng.Derive(11, 0)
	weeks := []int{3, 20, 40, 41, 42, 43}
	maxLine := 40
	for step := 0; step < 160; step++ {
		switch k := r.Intn(6); k {
		case 0, 1, 2: // tests, live or replayed from a WAL record
			if r.Bool(0.15) {
				maxLine = min(maxLine+1+r.Intn(700), 3*data.GridChunkLines)
			}
			recs := make([]TestRecord, 1+r.Intn(12))
			for i := range recs {
				recs[i] = TestRecord{
					Line: data.LineID(r.Intn(maxLine)), Week: weeks[r.Intn(len(weeks))],
					Missing: r.Bool(0.25), F: []float32{float32(step), float32(i), float32(r.Intn(3))},
					Profile: uint8(r.Intn(len(data.Profiles))), DSLAM: int32(r.Intn(9)), Usage: float32(r.Intn(4)) / 4,
				}
			}
			if k == 2 {
				rec := &wal.Record{Version: s.Version() + 1, Op: wal.OpTests}
				for _, t := range recs {
					rec.Tests = append(rec.Tests, wal.TestRec{Line: t.Line, Week: t.Week, Missing: t.Missing,
						Profile: t.Profile, DSLAM: t.DSLAM, Usage: t.Usage, F: t.F})
				}
				if err := s.ApplyWALRecord(rec); err != nil {
					t.Fatal(err)
				}
			} else if _, err := s.IngestTests(recs); err != nil {
				t.Fatal(err)
			}
			history = append(history, batch{version: s.Version(), tests: recs})
		case 3: // tickets, some past the grid, some repeated
			recs := make([]TicketRecord, 1+r.Intn(5))
			for i := range recs {
				recs[i] = TicketRecord{ID: r.Intn(40), Line: data.LineID(r.Intn(maxLine + 300)),
					Day: r.Intn(data.DaysInYear), Category: uint8(r.Intn(int(data.CatOther) + 1))}
			}
			if _, err := s.IngestTickets(recs); err != nil {
				t.Fatal(err)
			}
			history = append(history, batch{version: s.Version(), tickets: recs})
		case 4:
			if r.Bool(0.2) {
				s.ResetSnapshotCache()
			}
			fallthrough
		default:
			if sn := s.Snapshot(); sn != nil && (len(kept) == 0 || kept[len(kept)-1] != sn) {
				kept = append(kept, sn)
			}
		}
	}
	if len(kept) < 20 {
		t.Fatalf("the run kept only %d snapshots", len(kept))
	}
	for i, sn := range kept {
		m := &storeModel{lines: make(map[data.LineID]*modelLine), tickets: make(map[data.Ticket]bool)}
		for _, b := range history {
			if b.version <= sn.Version {
				m.apply(b.tests, b.tickets)
			}
		}
		assertSnapshotMatchesModel(t, fmt.Sprintf("snapshot %d (version %d)", i, sn.Version), sn, m)
	}
}

// TestWriteTrackingBounded: what a store tracks between publishes is
// bounded by the grid, not by the number of ingests. Re-ingesting the same
// cells and tickets a thousand times leaves one dirty entry per line and no
// new ticket, and the next publish still carries the lines' last values.
func TestWriteTrackingBounded(t *testing.T) {
	s := NewStore(4)
	recs := make([]TestRecord, 64)
	for i := range recs {
		recs[i] = TestRecord{Line: data.LineID(97 * i), Week: 40 + i%3, F: []float32{1}}
	}
	tickets := []TicketRecord{{ID: 1, Line: 5, Day: 200}, {ID: 2, Line: 9000, Day: 201}} // 9000: past the grid
	if _, err := s.IngestTests(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestTickets(tickets); err != nil {
		t.Fatal(err)
	}
	s.Snapshot()
	tracked := func() (dirty, tks int) {
		for i := range s.shards {
			dirty += len(s.shards[i].dirty)
			tks += len(s.shards[i].tickets)
		}
		return dirty, tks
	}
	if d, _ := tracked(); d != 0 {
		t.Fatalf("%d dirty lines right after a publish", d)
	}
	for rep := 0; rep < 1000; rep++ {
		for i := range recs {
			recs[i].F[0] = float32(rep)
		}
		if _, err := s.IngestTests(recs); err != nil {
			t.Fatal(err)
		}
		if _, err := s.IngestTickets(tickets); err != nil {
			t.Fatal(err)
		}
		if d, tk := tracked(); d != len(recs) || tk != len(tickets) {
			t.Fatalf("after %d re-ingests: %d dirty lines, %d tickets; want %d and %d", rep+1, d, tk, len(recs), len(tickets))
		}
	}
	sn := s.Snapshot()
	if sn.Version != s.Version() {
		t.Fatalf("snapshot at version %d, store at %d", sn.Version, s.Version())
	}
	for _, r := range recs {
		if got := sn.DS.At(r.Line, r.Week).F[0]; got != 999 {
			t.Fatalf("line %d week %d holds %v after the last re-ingest, want 999", r.Line, r.Week, got)
		}
	}
	if d, _ := tracked(); d != 0 {
		t.Fatalf("%d dirty lines after the publish", d)
	}
}

// TestPublishListsLinesOnce: a publish lists a line in Lines once, the
// first time a publish reads it, whatever the writes in between. After each
// step a base-derived publish must equal a from-scratch one of the same
// state (Lines, every LinesAt, cells and tickets), through a re-ingest of a
// listed line's only week (which leaves its seen and dirty bits equal, as
// on a new line), a cache reset, grid growth past a chunk and a shard, and
// a checkpoint restore followed by WAL replay and live ingest.
func TestPublishListsLinesOnce(t *testing.T) {
	rec := func(l data.LineID, w int) TestRecord {
		return TestRecord{Line: l, Week: w, F: []float32{float32(l), float32(w)}, DSLAM: int32(l % 5)}
	}
	ingest := func(s *Store, recs ...TestRecord) {
		t.Helper()
		if _, err := s.IngestTests(recs); err != nil {
			t.Fatal(err)
		}
	}
	// check publishes s from its last snapshot, then from scratch, and
	// compares; the from-scratch one is the base of the next step's.
	check := func(tag string, s *Store) {
		t.Helper()
		inc := s.Snapshot()
		s.ResetSnapshotCache()
		full := s.Snapshot()
		assertSnapshotsIdentical(t, tag, inc, full)
		if !slices.IsSorted(full.Lines) || len(slices.Compact(slices.Clone(full.Lines))) != len(full.Lines) {
			t.Fatalf("%s: from-scratch Lines %v not strictly ascending", tag, full.Lines)
		}
	}

	s := NewStore(2)
	ingest(s, rec(3, 40), rec(5, 41))
	s.Snapshot()
	ingest(s, rec(3, 40)) // line 3's only week again
	check("re-ingest of a listed line's only week", s)
	ingest(s, rec(3, 40), rec(4, 40), rec(5, 41))
	check("a new line beside re-ingests", s)
	ingest(s, rec(4, 40))
	s.Snapshot()
	s.ResetSnapshotCache()
	ingest(s, rec(4, 40))
	check("re-ingest after a cache reset", s)
	ingest(s, rec(data.LineID(2*data.GridChunkLines+7), 42), rec(5, 41))
	check("grid growth with a re-ingest", s)
	ingest(s, rec(data.LineID(2*data.GridChunkLines+7), 42))
	check("re-ingest of the line the grid grew for", s)

	dir := t.TempDir()
	if _, err := s.WriteCheckpoint(dir, 0); err != nil {
		t.Fatal(err)
	}
	paths, err := wal.Checkpoints(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("checkpoints %v, %v", paths, err)
	}
	r := NewStore(2)
	if _, err := r.LoadCheckpoint(paths[0].Path); err != nil {
		t.Fatal(err)
	}
	r.Snapshot()
	replay := &wal.Record{Version: r.Version() + 1, Op: wal.OpTests, Tests: []wal.TestRec{
		{Line: 3, Week: 40, F: []float32{9}}, {Line: 6, Week: 43, F: []float32{1}},
	}}
	if err := r.ApplyWALRecord(replay); err != nil {
		t.Fatal(err)
	}
	check("WAL replay after a checkpoint restore", r)
	ingest(r, rec(6, 43), rec(5, 41))
	check("live ingest after the replay", r)
}

// TestPublishMergesTickets: a publish merges the tickets it adds into its
// base's sorted list. After random ticket batches, including duplicates and
// tickets on lines past the grid that a later growth re-adds, a snapshot's
// tickets must equal the sorted union of those on its grid, and its index a
// fresh NewTicketIndex over them.
func TestPublishMergesTickets(t *testing.T) {
	s := NewStore(4)
	r := rng.Derive(23, 0)
	union := make(map[data.Ticket]bool)
	maxLine := 1
	if _, err := s.IngestTests([]TestRecord{{Line: 0, Week: 40}}); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 300; step++ {
		switch r.Intn(3) {
		case 0:
			recs := make([]TicketRecord, 1+r.Intn(12))
			for i := range recs {
				recs[i] = TicketRecord{ID: r.Intn(30), Line: data.LineID(r.Intn(maxLine + 400)),
					Day: r.Intn(data.DaysInYear), Category: uint8(r.Intn(int(data.CatOther) + 1))}
				union[data.Ticket{ID: recs[i].ID, Line: recs[i].Line, Day: recs[i].Day, Category: data.TicketCategory(recs[i].Category)}] = true
			}
			if _, err := s.IngestTickets(recs); err != nil {
				t.Fatal(err)
			}
		case 1:
			maxLine += r.Intn(300)
			if _, err := s.IngestTests([]TestRecord{{Line: data.LineID(maxLine - 1), Week: 40}}); err != nil {
				t.Fatal(err)
			}
		default:
			sn := s.Snapshot()
			var want []data.Ticket
			for tk := range union {
				if int(tk.Line) < sn.DS.NumLines {
					want = append(want, tk)
				}
			}
			sortTickets(want)
			if !slices.Equal(sn.DS.Tickets, want) {
				t.Fatalf("step %d: %d tickets, want the %d of the union on the grid", step, len(sn.DS.Tickets), len(want))
			}
			if !reflect.DeepEqual(sn.Ix, data.NewTicketIndex(sn.DS)) {
				t.Fatalf("step %d: ticket index differs from a fresh one", step)
			}
		}
	}
}
