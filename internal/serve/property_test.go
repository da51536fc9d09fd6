package serve

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"nevermind/internal/data"
	"nevermind/internal/rng"
)

// TestStoreSnapshotInvariants is the property-style check of the store's
// concurrency contract. Random interleavings of writers (test and ticket
// ingest), readers (snapshot materialisation) and a rebuild-fault toggler
// run together, and every observer asserts the invariants the serving path
// depends on:
//
//   - snapshot versions are monotonic per observer: time never goes
//     backwards for any single reader;
//   - a snapshot is never torn: the grid dimensions are self-consistent,
//     and every line the snapshot lists is inside the grid;
//   - after the dust settles, a final snapshot equals one rebuilt from
//     scratch on a fresh store fed the same records — the store state is
//     exactly the merge of what was ingested, regardless of interleaving
//     or injected rebuild faults along the way.
func TestStoreSnapshotInvariants(t *testing.T) {
	const (
		writers       = 4
		readers       = 4
		batchesPerW   = 24
		linesPerBatch = 16
		numLines      = 96
	)
	// An injected rebuild-fault process runs alongside: ~1 in 3 builds fail,
	// bounded so readers always converge. Faults must only ever make a
	// snapshot older, never inconsistent.
	var faultSeq struct {
		mu   sync.Mutex
		seq  uint64
		hits int
	}
	s := NewStore(4)
	s.SetFaults(&FaultHooks{SnapshotBuild: func(version uint64) error {
		faultSeq.mu.Lock()
		defer faultSeq.mu.Unlock()
		faultSeq.seq++
		if rng.Derive(7, 1, faultSeq.seq).Float64() < 0.33 {
			faultSeq.hits++
			return Transient(fmt.Errorf("injected rebuild fault #%d", faultSeq.hits))
		}
		return nil
	}})

	checkSnapshot := func(t *testing.T, sn *Snapshot) {
		t.Helper()
		if sn == nil {
			return
		}
		if err := sn.DS.Grid.Validate(sn.DS.NumLines); err != nil {
			t.Errorf("torn snapshot: %v", err)
		}
		if len(sn.Present) != data.Weeks {
			t.Errorf("torn snapshot: %d present rows", len(sn.Present))
		}
		for _, l := range sn.Lines {
			if int(l) >= sn.DS.NumLines {
				t.Errorf("torn snapshot: line %d outside grid of %d", l, sn.DS.NumLines)
			}
		}
	}

	// Deterministic per-writer record streams, so the final merged state is
	// known and replayable on a fresh store.
	batchFor := func(writer, batch int) ([]TestRecord, []TicketRecord) {
		r := rng.Derive(42, uint64(writer), uint64(batch))
		tests := make([]TestRecord, linesPerBatch)
		for i := range tests {
			tests[i] = TestRecord{
				Line:    data.LineID(r.Intn(numLines)),
				Week:    r.Intn(data.Weeks),
				Missing: r.Bool(0.2),
				F:       []float32{float32(writer), float32(batch), float32(i)},
				Profile: uint8(r.Intn(len(data.Profiles))),
				DSLAM:   int32(r.Intn(8)),
				Usage:   float32(r.Float64()),
			}
		}
		var tickets []TicketRecord
		for i := 0; i < 4; i++ {
			tickets = append(tickets, TicketRecord{
				ID:   writer*100000 + batch*100 + i,
				Line: data.LineID(r.Intn(numLines)),
				Day:  r.Intn(data.DaysInYear),
			})
		}
		return tests, tickets
	}

	var writeWg, readWg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWg.Add(1)
		go func(w int) {
			defer writeWg.Done()
			for b := 0; b < batchesPerW; b++ {
				tests, tickets := batchFor(w, b)
				if _, err := s.IngestTests(tests); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
				if _, err := s.IngestTickets(tickets); err != nil {
					t.Errorf("writer %d batch %d tickets: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readWg.Add(1)
		go func(r int) {
			defer readWg.Done()
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				checkSnapshot(t, sn)
				if b := s.GridBytes(); b < 0 {
					t.Errorf("reader %d: grid bytes %d", r, b)
				}
				if sn != nil {
					if sn.Version < lastVersion {
						t.Errorf("reader %d: snapshot version went backwards %d -> %d", r, lastVersion, sn.Version)
						return
					}
					lastVersion = sn.Version
				}
			}
		}(r)
	}
	// Readers run for the writers' whole lifetime, so they observe the full
	// interleaving; then they drain.
	writeWg.Wait()
	close(stop)
	readWg.Wait()

	// The final snapshot (faults heal: loop until a fresh build lands).
	var final *Snapshot
	for i := 0; ; i++ {
		final = s.Snapshot()
		if final != nil && final.Version == s.Version() {
			break
		}
		if i > 100 {
			t.Fatal("store never produced a fresh final snapshot")
		}
	}
	checkSnapshot(t, final)

	// Replay every batch serially into a fresh store; the snapshots must
	// agree on all content. (Version counters differ by interleaving; state
	// must not.)
	replay := NewStore(1)
	for w := 0; w < writers; w++ {
		for b := 0; b < batchesPerW; b++ {
			tests, tickets := batchFor(w, b)
			if _, err := replay.IngestTests(tests); err != nil {
				t.Fatal(err)
			}
			if _, err := replay.IngestTickets(tickets); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := replay.Snapshot()
	if want == nil {
		t.Fatal("replay store is empty")
	}
	if final.DS.NumLines != want.DS.NumLines {
		t.Fatalf("grid width diverged: %d vs %d lines", final.DS.NumLines, want.DS.NumLines)
	}
	if len(final.Lines) != len(want.Lines) {
		t.Fatalf("line sets diverged: %d vs %d", len(final.Lines), len(want.Lines))
	}
	for i := range want.Lines {
		if final.Lines[i] != want.Lines[i] {
			t.Fatalf("line set diverged at %d: %d vs %d", i, final.Lines[i], want.Lines[i])
		}
	}
	if len(final.DS.Tickets) != len(want.DS.Tickets) {
		t.Fatalf("ticket counts diverged: %d vs %d", len(final.DS.Tickets), len(want.DS.Tickets))
	}
	// Presence must match cell for cell. Measurement payloads for a (line,
	// week) written by several writers are last-writer-wins and order-
	// dependent under concurrency, so content equality is only required of
	// the presence/shape, which is merge-order independent.
	for w := 0; w < data.Weeks; w++ {
		for l := 0; l < want.DS.NumLines; l++ {
			if final.Present[w][l] != want.Present[w][l] {
				t.Fatalf("presence diverged at week %d line %d", w, l)
			}
		}
	}
	// The grid gauge, read without locks above, counts the written chunks,
	// which depend only on which cells were written.
	if got, want := s.GridBytes(), replay.GridBytes(); got != want || got != int64(s.grid.HeldCells())*int64(unsafe.Sizeof(data.Measurement{})) {
		t.Fatalf("grid bytes %d, replay %d, grid holds %d cells", got, want, s.grid.HeldCells())
	}
	if faultSeq.hits == 0 {
		t.Error("fault process never fired; the test lost its adversary")
	}
	if s.BuildFailures() == 0 {
		t.Error("store never recorded an injected build failure")
	}
}
