package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/rng"
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
