package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/serve"
	"nevermind/internal/wal"
)

// The restart soak is the durability subsystem's kill/restart fault family:
// a store with the WAL on is driven through weeks of ingest under the
// existing chaos faults (transient ingest and snapshot-build errors), killed
// at an adversarial point — between weeks, mid-week with a torn WAL tail,
// mid-checkpoint with the newest checkpoint corrupted — recovered into a
// fresh process-equivalent store, resumed, and must converge bit-identically
// to an uninterrupted run over the same feed.

// restartStep is one ingest batch of the deterministic feed, tagged with the
// week it belongs to.
type restartStep struct {
	week    int
	tests   []serve.TestRecord
	tickets []serve.TicketRecord
}

// restartFeed builds the whole soak feed: stepsPerWeek batches for each week
// in [lo, hi], mixing test and ticket batches, overlapping line ranges so
// re-ingest after a kill genuinely overwrites cells.
func restartFeed(lo, hi, stepsPerWeek int) []restartStep {
	var steps []restartStep
	for w := lo; w <= hi; w++ {
		for k := 0; k < stepsPerWeek; k++ {
			i := w*stepsPerWeek + k
			st := restartStep{week: w}
			if k%3 == 2 {
				for j := 0; j < 5; j++ {
					st.tickets = append(st.tickets, serve.TicketRecord{
						ID:       i*100 + j,
						Line:     data.LineID((i*29 + j*13) % 600),
						Day:      data.SaturdayOf(w) - j%3,
						Category: uint8((i + j) % int(data.CatOther+1)),
					})
				}
			} else {
				for j := 0; j < 12; j++ {
					line := data.LineID((i*31 + j*17) % 600)
					f := make([]float32, data.NumBasicFeatures)
					for c := range f {
						f[c] = float32(i%50)*0.3 + float32(j) + float32(c)*0.05
					}
					st.tests = append(st.tests, serve.TestRecord{
						Line: line, Week: w, Missing: (i+j)%9 == 0, F: f,
						Profile: uint8((i + j) % len(data.Profiles)),
						DSLAM:   int32(line) % 24,
						Usage:   float32(j%4) * 0.25,
					})
				}
			}
			steps = append(steps, st)
		}
	}
	return steps
}

// ingestStep applies one step with bounded retries against injected
// transient ingest faults, returning the store version after the batch
// landed. Mirrors the pipeline's retry-on-transient contract.
func ingestStep(t *testing.T, s *serve.Store, st *restartStep) uint64 {
	t.Helper()
	for attempt := 0; ; attempt++ {
		var err error
		if st.tests != nil {
			_, err = s.IngestTests(st.tests)
		} else {
			_, err = s.IngestTickets(st.tickets)
		}
		if err == nil {
			return s.Version()
		}
		if !serve.IsTransient(err) || attempt > 10 {
			t.Fatalf("week %d ingest failed terminally: %v", st.week, err)
		}
	}
}

// runClean ingests every step into a bare store — the uninterrupted
// reference the killed runs must converge to.
func runClean(t *testing.T, steps []restartStep) *serve.Store {
	t.Helper()
	s := serve.NewStore(4)
	for i := range steps {
		ingestStep(t, s, &steps[i])
	}
	return s
}

// killPlan places the kill and shapes the damage.
type killPlan struct {
	name string
	// killAfter kills once this many steps have been ingested.
	killAfter int
	// tearTail chops bytes off the newest WAL segment after the kill —
	// the mid-ingest torn-write crash.
	tearTail bool
	// corruptCkpt flips bytes in the newest checkpoint and drops a stray
	// .tmp beside it — the mid-checkpoint crash.
	corruptCkpt bool
	// checkpointAt forces synchronous checkpoints after these step counts
	// (so the corrupt-checkpoint plan has two checkpoints to fall back
	// through).
	checkpointAt []int
}

// runKilled drives the durable store through the plan: ingest with chaos
// faults armed, kill, damage the directory, recover into a fresh store,
// resume from the first non-durable step, finish the feed. Returns the
// recovered store and the recovery stats.
func runKilled(t *testing.T, steps []restartStep, plan killPlan) (*serve.Store, serve.RecoveryStats) {
	t.Helper()
	dir := t.TempDir()
	inj := New(Config{
		Seed:        31,
		IngestError: 0.20, SnapshotError: 0.25,
		Sleep: func(time.Duration) {},
	})

	open := func() (*serve.Store, *serve.Durability) {
		s := serve.NewStore(4)
		s.SetFaults(inj.Hooks())
		d, err := serve.OpenDurability(s, nil, serve.DurabilityConfig{
			Dir:  dir,
			Sync: wal.SyncNever, // Abandon + manual damage simulate the loss
			// Version-driven checkpoints off: the plans place checkpoints
			// deterministically via d.Checkpoint().
			CheckpointEvery: -1,
			SegmentBytes:    8 << 10, // small segments: kills usually land mid-chain
			KeepCheckpoints: 2,
		})
		if err != nil {
			t.Fatalf("OpenDurability: %v", err)
		}
		return s, d
	}

	s, d := open()
	// Hammer the snapshot path while ingesting, exactly like the main soak:
	// concurrent readers must never see a torn view, recovery included.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammer := func(st *serve.Store) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if sn := st.Snapshot(); sn != nil {
				_ = sn.LinesAt(int(sn.Version) % data.Weeks)
			}
		}
	}
	wg.Add(1)
	go hammer(s)

	// versionAfter[i] is the store version once step i landed — the resume
	// cursor maps the recovered version back to the first step to re-apply.
	versionAfter := make([]uint64, len(steps))
	ckptIdx := 0
	for i := 0; i < plan.killAfter; i++ {
		versionAfter[i] = ingestStep(t, s, &steps[i])
		if ckptIdx < len(plan.checkpointAt) && i+1 == plan.checkpointAt[ckptIdx] {
			d.Checkpoint()
			ckptIdx++
		}
	}
	close(stop)
	wg.Wait()
	d.Abandon() // kill -9: no final sync, no final checkpoint

	// Inflict the plan's damage on the directory.
	if plan.tearTail {
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments to tear: %v", err)
		}
		last := segs[len(segs)-1]
		st, _ := os.Stat(last)
		if err := os.Truncate(last, st.Size()-6); err != nil {
			t.Fatal(err)
		}
	}
	if plan.corruptCkpt {
		cks, err := wal.Checkpoints(dir)
		if err != nil || len(cks) == 0 {
			t.Fatalf("no checkpoints to corrupt: %v", err)
		}
		newest := cks[len(cks)-1].Path
		b, _ := os.ReadFile(newest)
		b[len(b)/3] ^= 0xa5
		if err := os.WriteFile(newest, b, 0o644); err != nil {
			t.Fatal(err)
		}
		// A crash mid-checkpoint also strands a partial .tmp; recovery must
		// ignore it and pruning must sweep it.
		if err := os.WriteFile(newest+".tmp", b[:len(b)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: recover into a fresh store and resume. The resume cursor
	// re-applies every step whose recorded version the recovery didn't
	// reach — re-ingest is idempotent (cells overwrite, tickets dedup), so
	// overlap is harmless and versions line up again by construction.
	s2, d2 := open()
	defer d2.Close()
	rec := d2.Recovery()
	resume := plan.killAfter
	for i := 0; i < plan.killAfter; i++ {
		if versionAfter[i] > rec.Version {
			resume = i
			break
		}
	}
	stop2 := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop2:
				return
			default:
			}
			if sn := s2.Snapshot(); sn != nil {
				_ = sn.LinesAt(int(sn.Version) % data.Weeks)
			}
		}
	}()
	for i := resume; i < len(steps); i++ {
		ingestStep(t, s2, &steps[i])
	}
	close(stop2)
	wg.Wait()
	return s2, rec
}

// freshSnapshot returns a snapshot at the store's current version. With
// chaos faults armed a build can fail and Snapshot serves the last good
// (stale) snapshot instead; the injector's fault budget is bounded, so
// retrying converges.
func freshSnapshot(t *testing.T, name string, s *serve.Store) *serve.Snapshot {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if sn := s.Snapshot(); sn != nil && sn.Version == s.Version() {
			return sn
		}
	}
	t.Fatalf("%s: store never produced a fresh snapshot", name)
	return nil
}

// assertStoreContentEqual compares two stores through their snapshots: a
// restarted store is a different Store instance, but every served byte must
// match the reference.
func assertStoreContentEqual(t *testing.T, name string, ref, got *serve.Store) {
	t.Helper()
	if ref.Version() != got.Version() {
		t.Fatalf("%s: version diverged: reference %d, recovered %d", name, ref.Version(), got.Version())
	}
	if ref.LatestWeek() != got.LatestWeek() || ref.GridLines() != got.GridLines() || ref.NumLines() != got.NumLines() {
		t.Fatalf("%s: watermarks diverged: week %d/%d gridlines %d/%d lines %d/%d", name,
			ref.LatestWeek(), got.LatestWeek(), ref.GridLines(), got.GridLines(), ref.NumLines(), got.NumLines())
	}
	a, b := freshSnapshot(t, name, ref), freshSnapshot(t, name, got)
	if a.Version != b.Version {
		t.Fatalf("%s: snapshot versions diverged: %d vs %d", name, a.Version, b.Version)
	}
	if a.DS.NumLines != b.DS.NumLines || a.DS.NumDSLAMs != b.DS.NumDSLAMs {
		t.Fatalf("%s: snapshot shape diverged: lines %d/%d dslams %d/%d", name,
			a.DS.NumLines, b.DS.NumLines, a.DS.NumDSLAMs, b.DS.NumDSLAMs)
	}
	if !reflect.DeepEqual(a.Lines, b.Lines) {
		t.Fatalf("%s: line sets diverged", name)
	}
	if !reflect.DeepEqual(a.DS.Tickets, b.DS.Tickets) {
		t.Fatalf("%s: tickets diverged: %d vs %d", name, len(a.DS.Tickets), len(b.DS.Tickets))
	}
	if !reflect.DeepEqual(a.DS.ProfileOf, b.DS.ProfileOf) ||
		!reflect.DeepEqual(a.DS.DSLAMOf, b.DS.DSLAMOf) ||
		!reflect.DeepEqual(a.DS.UsageOf, b.DS.UsageOf) {
		t.Fatalf("%s: line attributes diverged", name)
	}
	for w := 0; w < data.Weeks; w++ {
		if !reflect.DeepEqual(a.LinesAt(w), b.LinesAt(w)) {
			t.Fatalf("%s: week %d line lists diverged", name, w)
		}
		for l := 0; l < a.DS.NumLines; l++ {
			if a.Present[w][l] != b.Present[w][l] {
				t.Fatalf("%s: presence diverged at week %d line %d", name, w, l)
			}
			if *a.DS.At(data.LineID(l), w) != *b.DS.At(data.LineID(l), w) {
				t.Fatalf("%s: grid cell diverged at week %d line %d", name, w, l)
			}
		}
	}
}

// TestRestartSoak runs every kill plan against the same feed and requires
// bit-identical convergence with the uninterrupted reference, plus proof
// that each plan's adversary actually fired (records replayed, bytes
// truncated, checkpoints skipped) — a plan whose damage never engaged the
// recovery path would pass vacuously otherwise.
func TestRestartSoak(t *testing.T) {
	const lo, hi, perWeek = 40, 47, 4
	steps := restartFeed(lo, hi, perWeek)
	ref := runClean(t, steps)

	mid := len(steps) / 2
	plans := []killPlan{
		{
			// Clean kill at a week boundary: everything acked is durable,
			// recovery replays the whole WAL, resume continues with the
			// next week.
			name:      "between-weeks",
			killAfter: (hi - lo) / 2 * perWeek,
		},
		{
			// Kill mid-week with a torn final record: the tail batch is
			// lost, recovery truncates it, resume re-ingests it.
			name:      "mid-ingest-torn-tail",
			killAfter: mid + 1,
			tearTail:  true,
		},
		{
			// Kill mid-checkpoint: newest checkpoint corrupt plus a stray
			// .tmp; recovery falls back to the previous checkpoint and the
			// WAL tail past it (which truncation must have preserved).
			name:         "mid-checkpoint-corrupt",
			killAfter:    mid + 2,
			corruptCkpt:  true,
			checkpointAt: []int{mid / 2, mid},
		},
	}
	for _, plan := range plans {
		plan := plan
		t.Run(plan.name, func(t *testing.T) {
			got, rec := runKilled(t, steps, plan)
			assertStoreContentEqual(t, plan.name, ref, got)
			if rec.ReplayedRecords == 0 && rec.CheckpointVersion == 0 {
				t.Fatalf("recovery recovered nothing: %+v", rec)
			}
			if plan.tearTail && rec.TruncatedBytes == 0 {
				t.Fatalf("torn-tail plan saw no truncation: %+v", rec)
			}
			if plan.corruptCkpt {
				if rec.SkippedCheckpoints == 0 {
					t.Fatalf("corrupt-checkpoint plan skipped no checkpoints: %+v", rec)
				}
				if rec.CheckpointVersion == 0 {
					t.Fatalf("corrupt-checkpoint plan found no fallback checkpoint: %+v", rec)
				}
			}
		})
	}
}
