package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/obs"
	"nevermind/internal/wal"
)

// durTestBatch builds a deterministic ingest batch for step i: mostly test
// records, every third step a ticket batch.
func durTestBatch(i int) ([]TestRecord, []TicketRecord) {
	if i%3 == 2 {
		var ts []TicketRecord
		for j := 0; j < 4; j++ {
			ts = append(ts, TicketRecord{
				ID:       i*100 + j,
				Line:     data.LineID((i*13 + j*7) % 300),
				Day:      (i*3 + j) % data.DaysInYear,
				Category: uint8((i + j) % int(data.CatOther+1)),
			})
		}
		return nil, ts
	}
	var rs []TestRecord
	for j := 0; j < 8; j++ {
		line := data.LineID((i*17 + j*11) % 300)
		f := make([]float32, data.NumBasicFeatures)
		for k := range f {
			f[k] = float32(i)*0.1 + float32(j) + float32(k)*0.01
		}
		rs = append(rs, TestRecord{
			Line: line, Week: 30 + i%8, Missing: (i+j)%7 == 0, F: f,
			Profile: uint8((i + j) % len(data.Profiles)),
			DSLAM:   int32(line) % 16,
			Usage:   float32(i%5) * 0.2,
		})
	}
	return rs, nil
}

func ingestSteps(t *testing.T, s *Store, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		tests, tickets := durTestBatch(i)
		if tests != nil {
			if _, err := s.IngestTests(tests); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		} else {
			if _, err := s.IngestTickets(tickets); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
}

// assertSameContent compares two snapshots through the serving surface: a
// restored store's content must be bit-identical to the original's.
func assertSameContent(t *testing.T, a, b *Snapshot) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("nil snapshot: %v vs %v", a, b)
	}
	if a.Version != b.Version {
		t.Fatalf("versions diverged: %d vs %d", a.Version, b.Version)
	}
	if a.DS.NumLines != b.DS.NumLines || a.DS.NumDSLAMs != b.DS.NumDSLAMs {
		t.Fatalf("shape diverged: lines %d/%d dslams %d/%d", a.DS.NumLines, b.DS.NumLines, a.DS.NumDSLAMs, b.DS.NumDSLAMs)
	}
	if !reflect.DeepEqual(a.Lines, b.Lines) {
		t.Fatal("line sets diverged")
	}
	if !reflect.DeepEqual(a.DS.Tickets, b.DS.Tickets) {
		t.Fatalf("tickets diverged: %d vs %d", len(a.DS.Tickets), len(b.DS.Tickets))
	}
	if !reflect.DeepEqual(a.DS.ProfileOf, b.DS.ProfileOf) ||
		!reflect.DeepEqual(a.DS.DSLAMOf, b.DS.DSLAMOf) ||
		!reflect.DeepEqual(a.DS.UsageOf, b.DS.UsageOf) {
		t.Fatal("line attributes diverged")
	}
	for w := 0; w < data.Weeks; w++ {
		if !reflect.DeepEqual(a.LinesAt(w), b.LinesAt(w)) {
			t.Fatalf("week %d line lists diverged", w)
		}
		for l := 0; l < a.DS.NumLines; l++ {
			if a.Present[w][l] != b.Present[w][l] {
				t.Fatalf("presence diverged at week %d line %d", w, l)
			}
			if *a.DS.At(data.LineID(l), w) != *b.DS.At(data.LineID(l), w) {
				t.Fatalf("grid cell diverged at week %d line %d", w, l)
			}
		}
	}
}

// recover opens durability on a fresh store over dir and returns both.
func recoverStore(t *testing.T, dir string, cfg DurabilityConfig) (*Store, *Durability) {
	t.Helper()
	cfg.Dir = dir
	s := NewStore(4)
	d, err := OpenDurability(s, nil, cfg)
	if err != nil {
		t.Fatalf("OpenDurability: %v", err)
	}
	return s, d
}

func TestDurabilityRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s1, d1 := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever, CheckpointEvery: -1})
	ingestSteps(t, s1, 0, 30)
	want := s1.Snapshot()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	// Close with checkpoints disabled by cadence still writes the final
	// checkpoint; delete it to force a pure WAL replay.
	cks, _ := wal.Checkpoints(dir)
	for _, c := range cks {
		os.Remove(c.Path)
	}

	s2, d2 := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever, CheckpointEvery: -1})
	defer d2.Close()
	if got := d2.Recovery(); got.ReplayedRecords == 0 || got.CheckpointVersion != 0 {
		t.Fatalf("recovery stats %+v: want pure WAL replay", got)
	}
	if s2.Version() != s1.Version() {
		t.Fatalf("version diverged: %d vs %d", s2.Version(), s1.Version())
	}
	if s2.LatestWeek() != s1.LatestWeek() || s2.GridLines() != s1.GridLines() {
		t.Fatalf("watermarks diverged: week %d/%d lines %d/%d",
			s2.LatestWeek(), s1.LatestWeek(), s2.GridLines(), s1.GridLines())
	}
	assertSameContent(t, want, s2.Snapshot())

	// The recovered store keeps logging: ingest more on both and stay equal.
	ingestSteps(t, s1, 30, 36)
	ingestSteps(t, s2, 30, 36)
	assertSameContent(t, s1.Snapshot(), s2.Snapshot())
}

func TestDurabilityCheckpointPlusTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, d1 := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever, CheckpointEvery: -1})
	ingestSteps(t, s1, 0, 20)
	d1.checkpoint() // synchronous, deterministic
	if d1.LastCheckpointVersion() != s1.Version() {
		t.Fatalf("checkpoint at %d, store at %d", d1.LastCheckpointVersion(), s1.Version())
	}
	ingestSteps(t, s1, 20, 33) // tail past the checkpoint
	want := s1.Snapshot()
	wantV := s1.Version()
	// Crash: no final checkpoint, no final sync beyond what appends did.
	d1.Abandon()

	s2, d2 := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever})
	defer d2.Close()
	st := d2.Recovery()
	if st.CheckpointVersion == 0 {
		t.Fatalf("recovery ignored the checkpoint: %+v", st)
	}
	if st.ReplayedRecords == 0 {
		t.Fatalf("recovery replayed nothing past the checkpoint: %+v", st)
	}
	if s2.Version() != wantV {
		t.Fatalf("version %d after recovery, want %d", s2.Version(), wantV)
	}
	assertSameContent(t, want, s2.Snapshot())
}

func TestDurabilityCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s1, d1 := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever, CheckpointEvery: -1, KeepCheckpoints: 2})
	ingestSteps(t, s1, 0, 10)
	d1.checkpoint()
	ingestSteps(t, s1, 10, 20)
	d1.checkpoint()
	ingestSteps(t, s1, 20, 24)
	want := s1.Snapshot()
	wantV := s1.Version()
	d1.Abandon()

	cks, err := wal.Checkpoints(dir)
	if err != nil || len(cks) != 2 {
		t.Fatalf("want 2 checkpoints, got %d (%v)", len(cks), err)
	}
	// Corrupt the newest checkpoint mid-file.
	b, _ := os.ReadFile(cks[1].Path)
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(cks[1].Path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, d2 := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever})
	defer d2.Close()
	st := d2.Recovery()
	if st.SkippedCheckpoints != 1 {
		t.Fatalf("skipped %d checkpoints, want 1 (%+v)", st.SkippedCheckpoints, st)
	}
	if st.CheckpointVersion != cks[0].Version {
		t.Fatalf("recovered from checkpoint %d, want the older %d", st.CheckpointVersion, cks[0].Version)
	}
	if s2.Version() != wantV {
		t.Fatalf("version %d after fallback recovery, want %d", s2.Version(), wantV)
	}
	assertSameContent(t, want, s2.Snapshot())
}

func TestDurabilityTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s1, d1 := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever, CheckpointEvery: -1})
	ingestSteps(t, s1, 0, 12)
	if err := d1.log.Sync(); err != nil {
		t.Fatal(err)
	}
	d1.Abandon()
	cks, _ := wal.Checkpoints(dir)
	for _, c := range cks {
		os.Remove(c.Path)
	}
	// Tear the last few bytes off the newest segment: the final record is
	// lost, everything before it must recover.
	var segs []string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".wal" {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segments on disk")
	}
	last := segs[len(segs)-1]
	st, _ := os.Stat(last)
	if err := os.Truncate(last, st.Size()-4); err != nil {
		t.Fatal(err)
	}

	s2, d2 := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever})
	defer d2.Close()
	rec := d2.Recovery()
	if rec.TruncatedBytes == 0 {
		t.Fatalf("repair reported no truncation: %+v", rec)
	}
	if s2.Version() != s1.Version()-1 {
		t.Fatalf("recovered version %d, want %d (one torn record)", s2.Version(), s1.Version()-1)
	}
	// Re-ingesting the lost step converges the stores exactly (tests
	// overwrite per cell, tickets dedup) — the pipeline's re-delivery
	// contract does this for real feeds.
	ingestSteps(t, s2, 11, 12)
	assertSameContent(t, s1.Snapshot(), s2.Snapshot())
}

func TestDurabilityWALTruncatedThroughOldestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s1, d1 := recoverStore(t, dir, DurabilityConfig{
		Sync: wal.SyncNever, CheckpointEvery: -1, KeepCheckpoints: 2, SegmentBytes: 2048,
	})
	for i := 0; i < 60; i += 20 {
		ingestSteps(t, s1, i, i+20)
		d1.checkpoint()
	}
	segs := d1.log.Segments()
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	cks, _ := wal.Checkpoints(dir)
	if len(cks) != 2 {
		t.Fatalf("want 2 retained checkpoints, got %d", len(cks))
	}
	// Truncation must never cut past the oldest retained checkpoint: a
	// record with version > cks[0].Version has to survive in the log.
	if first := segs[0].FirstVersion; first > cks[0].Version+1 {
		t.Fatalf("oldest surviving record is v%d, past oldest checkpoint v%d — newest-checkpoint corruption would be unrecoverable", first, cks[0].Version)
	}
	want := s1.Snapshot()
	d1.Abandon()

	// Even with the newest checkpoint corrupt, the older one + surviving
	// tail reaches the exact same state.
	b, _ := os.ReadFile(cks[1].Path)
	b[len(b)-20] ^= 0x08
	os.WriteFile(cks[1].Path, b, 0o644)
	s2, d2 := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever})
	defer d2.Close()
	if s2.Version() != s1.Version() {
		t.Fatalf("version %d, want %d", s2.Version(), s1.Version())
	}
	assertSameContent(t, want, s2.Snapshot())
}

// waitFor yields until cond holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestKickDuringCheckpointWritesOnce pins the version-driven cadence: ingest
// that lands while a checkpoint is running queues a kick (the sink still
// measures against the previous checkpoint), and that kick must not write a
// second checkpoint until the store is CheckpointEvery versions past the one
// just written. The test parks the checkpoint on a held shard lock, so every
// step waits on an event, never on a sleep.
func TestKickDuringCheckpointWritesOnce(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(8)
	m := newMetrics()
	s.setMetrics(m)
	d, err := OpenDurability(s, nil, DurabilityConfig{
		Dir: dir, Sync: wal.SyncNever, CheckpointEvery: 4, NoFinalCheckpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lines of grid chunks 1..7 never belong to shard 0, so ingest proceeds
	// while the test holds shard 0's lock.
	ingest := func(i int) {
		t.Helper()
		var recs []TestRecord
		for k := 0; k < 16; k++ {
			line := data.LineID(data.GridChunkLines*(1+(i+k)%7) + k)
			recs = append(recs, TestRecord{Line: line, Week: 30 + i%8, F: []float32{float32(i), float32(k)}})
		}
		if _, err := s.IngestTests(recs); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 3; i++ {
		ingest(i)
	}
	held := &s.shards[0].mu
	held.Lock()
	ingest(3) // version 4: kicks the loop, whose checkpoint parks on shard 0
	waitFor(t, "the checkpoint to block on shard 0", func() bool {
		return m.shardContended.With("checkpoint").Value() > 0
	})
	ingest(4) // version 5, mid-checkpoint: queues a second kick
	if len(d.kick) != 1 {
		t.Fatalf("no kick queued during the checkpoint (len %d)", len(d.kick))
	}
	held.Unlock()
	waitFor(t, "the loop to take the queued kick", func() bool { return len(d.kick) == 0 })
	if err := d.Close(); err != nil { // waits for the loop to finish the kick
		t.Fatal(err)
	}

	if got := d.ckptTotal.Load(); got != 1 {
		cks, _ := wal.Checkpoints(dir)
		t.Fatalf("wrote %d checkpoints over versions 1..5 at cadence 4, want 1: %+v", got, cks)
	}
	if got := d.LastCheckpointVersion(); got != 4 {
		t.Fatalf("checkpoint at version %d, want 4", got)
	}
}

// TestCheckpointDuringIngestRecovers runs version-driven checkpoints in the
// background while ingest keeps landing, then crashes and recovers: a
// checkpoint written under live ingest must be at least as new as the
// version it records, so the newest one plus the WAL tail past it rebuilds
// the exact shard state, pending tickets included.
func TestCheckpointDuringIngestRecovers(t *testing.T) {
	dir := t.TempDir()
	s1, d1 := recoverStore(t, dir, DurabilityConfig{
		Sync: wal.SyncNever, CheckpointEvery: 8, KeepCheckpoints: 2, NoFinalCheckpoint: true,
	})
	ingestSteps(t, s1, 0, 150)
	waitFor(t, "a background checkpoint", func() bool { return d1.ckptTotal.Load() > 0 })
	want := s1.Snapshot()
	d1.Abandon() // waits for a running checkpoint, then crashes

	s2, d2 := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever, CheckpointEvery: -1})
	defer d2.Close()
	if rec := d2.Recovery(); rec.CheckpointVersion == 0 || rec.SkippedCheckpoints != 0 {
		t.Fatalf("recovery did not start from a background checkpoint: %+v", rec)
	}
	assertSameState(t, s1, s2)
	assertSameContent(t, want, s2.Snapshot())
}

func TestDurabilityMetricsRegistered(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(2)
	reg := obs.NewRegistry()
	d, err := OpenDurability(s, reg, DurabilityConfig{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ingestSteps(t, s, 0, 5)
	var buf []byte
	w := &sliceWriter{&buf}
	if err := reg.WritePrometheus(w); err != nil {
		t.Fatal(err)
	}
	text := string(buf)
	for _, name := range []string{
		"nevermind_wal_records_total", "nevermind_wal_lag_records",
		"nevermind_wal_last_version", "nevermind_checkpoint_last_version",
		"nevermind_recovery_duration_seconds", "nevermind_recovery_replayed_records",
	} {
		if !containsStr(text, name) {
			t.Fatalf("metric %s missing from exposition", name)
		}
	}
	if !containsStr(text, "nevermind_wal_records_total 5") {
		t.Fatalf("wal_records_total should read 5:\n%s", text)
	}
}

type sliceWriter struct{ b *[]byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
