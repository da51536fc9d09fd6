package serve

import (
	"testing"

	"nevermind/internal/data"
)

func TestStoreShardSizing(t *testing.T) {
	if n := NewStore(3).NumShards(); n != 4 {
		t.Fatalf("3 shards rounded to %d, want 4", n)
	}
	if n := NewStore(0).NumShards(); n < 1 {
		t.Fatalf("default store has %d shards", n)
	}
	if NewStore(8).NumShards() != 8 {
		t.Fatal("power-of-two count changed")
	}
}

func TestStoreIngestAndSnapshot(t *testing.T) {
	s := NewStore(4)
	if s.Snapshot() != nil {
		t.Fatal("empty store produced a snapshot")
	}
	if s.LatestWeek() != -1 {
		t.Fatalf("empty store latest week %d", s.LatestWeek())
	}

	recs := []TestRecord{
		{Line: 7, Week: 10, F: []float32{1, 2, 3}, Profile: 1, DSLAM: 2, Usage: 0.5},
		{Line: 3, Week: 10, Missing: true},
		// Non-Missing records re-state the static attributes (last write
		// wins); Missing ones leave them alone.
		{Line: 7, Week: 11, F: []float32{4}, Profile: 1, DSLAM: 2, Usage: 0.5},
	}
	n, err := s.IngestTests(recs)
	if err != nil || n != 3 {
		t.Fatalf("ingest = %d, %v", n, err)
	}
	if s.NumLines() != 2 || s.LatestWeek() != 11 || s.Version() != 1 {
		t.Fatalf("lines=%d latest=%d version=%d", s.NumLines(), s.LatestWeek(), s.Version())
	}
	total := 0
	for _, c := range s.ShardSizes() {
		total += c
	}
	if total != 2 {
		t.Fatalf("shard sizes sum to %d", total)
	}

	sn := s.Snapshot()
	if sn == nil {
		t.Fatal("no snapshot after ingest")
	}
	if sn.DS.NumLines != 8 {
		t.Fatalf("snapshot grid covers %d lines, want max id + 1 = 8", sn.DS.NumLines)
	}
	if err := sn.DS.Validate(); err != nil {
		t.Fatalf("snapshot dataset invalid: %v", err)
	}
	m := sn.DS.At(7, 10)
	if m.Missing || m.F[0] != 1 || m.F[1] != 2 || m.F[2] != 3 || m.F[3] != 0 {
		t.Fatalf("ingested measurement mangled: %+v", m)
	}
	if got := sn.DS.ProfileOf[7]; got != 1 {
		t.Fatalf("profile %d", got)
	}
	if !sn.DS.At(3, 10).Missing {
		t.Fatal("modem-off record lost its Missing flag")
	}
	// Never-ingested cells are dense but missing, and absent from Present.
	if !sn.DS.At(5, 10).Missing {
		t.Fatal("never-ingested cell not missing")
	}
	if sn.Present[10][5] || !sn.Present[10][3] || !sn.Present[11][7] || sn.Present[11][3] {
		t.Fatal("presence matrix wrong")
	}
	if got := sn.LinesAt(10); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("LinesAt(10) = %v", got)
	}
	if got := sn.LinesAt(11); len(got) != 1 || got[0] != 7 {
		t.Fatalf("LinesAt(11) = %v", got)
	}
	if sn.LinesAt(-1) != nil || sn.LinesAt(data.Weeks) != nil {
		t.Fatal("out-of-range week returned lines")
	}

	// The snapshot is cached until the next ingest...
	if s.Snapshot() != sn {
		t.Fatal("unchanged store rebuilt its snapshot")
	}
	// ...an overwrite bumps the version and rebuilds...
	if _, err := s.IngestTests([]TestRecord{{Line: 7, Week: 10, F: []float32{9}, Profile: 1, DSLAM: 2, Usage: 0.5}}); err != nil {
		t.Fatal(err)
	}
	sn2 := s.Snapshot()
	if sn2 == sn {
		t.Fatal("ingest did not invalidate the snapshot")
	}
	if sn2.DS.At(7, 10).F[0] != 9 {
		t.Fatal("re-ingested week did not overwrite")
	}
	// ...and the old snapshot is untouched (immutability).
	if sn.DS.At(7, 10).F[0] != 1 {
		t.Fatal("old snapshot mutated by ingest")
	}

	// A Missing record for a known line (modem off that week) must not zero
	// its static attributes.
	if _, err := s.IngestTests([]TestRecord{{Line: 7, Week: 12, Missing: true}}); err != nil {
		t.Fatal(err)
	}
	sn3 := s.Snapshot()
	if !sn3.DS.At(7, 12).Missing {
		t.Fatal("Missing record lost its flag")
	}
	if sn3.DS.ProfileOf[7] != 1 || sn3.DS.DSLAMOf[7] != 2 || sn3.DS.UsageOf[7] != 0.5 {
		t.Fatalf("Missing record clobbered static attributes: profile=%d dslam=%d usage=%v",
			sn3.DS.ProfileOf[7], sn3.DS.DSLAMOf[7], sn3.DS.UsageOf[7])
	}
}

func TestStoreIngestValidation(t *testing.T) {
	s := NewStore(2)
	long := make([]float32, data.NumBasicFeatures+1)
	bad := [][]TestRecord{
		{{Line: -1, Week: 0}},
		{{Line: MaxLineID, Week: 0}},
		{{Line: 0, Week: -1}},
		{{Line: 0, Week: data.Weeks}},
		{{Line: 0, Week: 0, F: long}},
		{{Line: 0, Week: 0, Profile: uint8(len(data.Profiles))}},
		{{Line: 0, Week: 0, DSLAM: -1}},
		// A bad record anywhere in the batch rejects the whole batch.
		{{Line: 0, Week: 0}, {Line: 0, Week: data.Weeks}},
	}
	for i, recs := range bad {
		if _, err := s.IngestTests(recs); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
	}
	if s.Version() != 0 || s.NumLines() != 0 {
		t.Fatal("rejected batches left state behind")
	}
	if n, err := s.IngestTests(nil); err != nil || n != 0 {
		t.Fatalf("empty batch: %d, %v", n, err)
	}
	if s.Version() != 0 {
		t.Fatal("empty batch bumped the version")
	}
}

func TestStoreTicketsDedupAndValidation(t *testing.T) {
	s := NewStore(2)
	recs := []TicketRecord{
		{ID: 1, Line: 4, Day: 30, Category: 0},
		{ID: 2, Line: 5, Day: 10, Category: 2},
		{ID: 1, Line: 4, Day: 30, Category: 0}, // exact duplicate
	}
	n, err := s.IngestTickets(recs)
	if err != nil || n != 2 {
		t.Fatalf("ingest = %d, %v", n, err)
	}
	if n, _ := s.IngestTickets(recs[:1]); n != 0 {
		t.Fatalf("replay ingested %d tickets", n)
	}
	bad := []TicketRecord{
		{ID: 3, Line: -1, Day: 0},
		{ID: 3, Line: 0, Day: -1},
		{ID: 3, Line: 0, Day: data.DaysInYear},
		{ID: 3, Line: 0, Day: 0, Category: 200},
	}
	for i, r := range bad {
		if _, err := s.IngestTickets([]TicketRecord{r}); err == nil {
			t.Fatalf("bad ticket %d accepted", i)
		}
	}

	// Tickets alone produce no snapshot (no line states), but combined with
	// a test record they land sorted by day in the dataset.
	if _, err := s.IngestTests([]TestRecord{{Line: 5, Week: 2}}); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if sn == nil {
		t.Fatal("no snapshot")
	}
	if len(sn.DS.Tickets) != 2 {
		t.Fatalf("%d tickets in snapshot", len(sn.DS.Tickets))
	}
	if sn.DS.Tickets[0].Day != 10 || sn.DS.Tickets[1].Day != 30 {
		t.Fatalf("tickets unsorted: %+v", sn.DS.Tickets)
	}
}
