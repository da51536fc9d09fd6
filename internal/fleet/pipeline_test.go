package fleet_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/fleet"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

// corruptOnceSource delivers its feed unchanged, except that the first
// delivery of week bad carries an out-of-range week in one record; the next
// pull re-serves that week clean, as the Source re-delivery contract says.
// It also remembers the week it delivered last, so a shard fault hook can
// aim at one week's ingest.
type corruptOnceSource struct {
	inner serve.Source
	bad   int
	held  *sim.Batch // week bad, owed a clean re-delivery

	mu   sync.Mutex
	last int
}

func (s *corruptOnceSource) Remaining() int {
	n := s.inner.Remaining()
	if s.held != nil {
		n++
	}
	return n
}

func (s *corruptOnceSource) Next() (sim.Batch, bool, error) {
	if s.held != nil {
		b := *s.held
		s.held = nil
		return b, true, nil
	}
	b, ok, err := s.inner.Next()
	if !ok || err != nil {
		return b, ok, err
	}
	s.mu.Lock()
	s.last = b.Week
	s.mu.Unlock()
	if b.Week != s.bad {
		return b, true, nil
	}
	s.held = &b
	corrupt := b
	corrupt.Tests = append([]sim.LineTest(nil), b.Tests...)
	corrupt.Tests[0].M.Week = data.Weeks
	return corrupt, true, nil
}

func (s *corruptOnceSource) lastWeek() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// TestFleetPipelineRetriesFaults drives the fleet pipeline through the two
// failure classes a gateway reports: a bad batch (400, the week is pulled
// again) and an unreachable shard (503 once the gateway's own attempts are
// spent, the same batch is sent again). Both weeks must complete exactly
// once, with the reports of a clean run.
func TestFleetPipelineRetriesFaults(t *testing.T) {
	ds, _, _ := fixture(t)

	run := func(hooks *fleet.FaultHooks, src serve.Source) ([]serve.WeekReport, []serve.RetryEvent) {
		t.Helper()
		tf := newTestFleet(t, 1, hooks, serve.RetryConfig{MaxAttempts: 2})
		var reports []serve.WeekReport
		var retries []serve.RetryEvent
		pl, err := fleet.NewPipeline(tf.gw, serve.PipelineConfig{
			Source:  src,
			Sleep:   func(time.Duration) {},
			OnWeek:  func(r serve.WeekReport) { reports = append(reports, r) },
			OnRetry: func(e serve.RetryEvent) { retries = append(retries, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(t.Context()); err != nil {
			t.Fatal(err)
		}
		return reports, retries
	}

	cleanSrc, err := sim.NewSource(ds, 40, 42)
	if err != nil {
		t.Fatal(err)
	}
	clean, cleanRetries := run(nil, serve.SimFeed(cleanSrc))
	if len(clean) != 3 || len(cleanRetries) != 0 {
		t.Fatalf("clean run: %d weeks, %d retries", len(clean), len(cleanRetries))
	}

	inner, err := sim.NewSource(ds, 40, 42)
	if err != nil {
		t.Fatal(err)
	}
	src := &corruptOnceSource{inner: serve.SimFeed(inner), bad: 41}
	var mu sync.Mutex
	ingestFaults := 0
	hooks := &fleet.FaultHooks{
		ShardRequest: func(shard, route string) error {
			mu.Lock()
			defer mu.Unlock()
			if route == "/v1/ingest" && src.lastWeek() == 42 && ingestFaults < 2 {
				ingestFaults++
				return errors.New("injected network fault")
			}
			return nil
		},
	}
	faulty, retries := run(hooks, src)
	if ingestFaults != 2 {
		t.Fatalf("shard hook failed %d ingests, want 2", ingestFaults)
	}

	if len(retries) != 2 {
		t.Fatalf("observed %d retries, want 2: %+v", len(retries), retries)
	}
	if e := retries[0]; e.Week != 41 || e.Op != "ingest" || !serve.IsBadBatch(e.Err) {
		t.Fatalf("first retry = %+v, want a week-41 bad batch", e)
	}
	if e := retries[1]; e.Week != 42 || e.Op != "ingest" || !serve.IsTransient(e.Err) {
		t.Fatalf("second retry = %+v, want a week-42 transient ingest error", e)
	}

	if len(faulty) != len(clean) {
		t.Fatalf("faulty run covered %d weeks, clean run %d", len(faulty), len(clean))
	}
	for i := range faulty {
		wantRetries := 0
		if faulty[i].Week >= 41 {
			wantRetries = 1
		}
		if faulty[i].Retries != wantRetries {
			t.Fatalf("week %d retried %d times, want %d", faulty[i].Week, faulty[i].Retries, wantRetries)
		}
		got := faulty[i]
		got.Retries = 0
		if got != clean[i] {
			t.Fatalf("week %d diverged from the clean run:\nfaulty %+v\nclean  %+v", got.Week, got, clean[i])
		}
	}
}

// TestFleetPipelineRefusesOnSnapshot: a fleet keeps no local snapshot, so
// an OnSnapshot observer (the drift monitors' feed) could never be called.
// The pipeline must refuse it up front rather than silently never call it.
func TestFleetPipelineRefusesOnSnapshot(t *testing.T) {
	ds, _, _ := fixture(t)
	tf := newTestFleet(t, 1, nil, serve.RetryConfig{})
	src, err := sim.NewSource(ds, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fleet.NewPipeline(tf.gw, serve.PipelineConfig{
		Source:     serve.SimFeed(src),
		OnSnapshot: func(*serve.Snapshot, int) {},
	})
	if err == nil {
		t.Fatal("fleet pipeline accepted an OnSnapshot it can never call")
	}
}
