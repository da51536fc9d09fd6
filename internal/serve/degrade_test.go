package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/sim"
)

// flakySource scripts a fault sequence against the Source contract: each
// entry of script describes what the next Next call does to the current
// week. It re-serves a week until an entry delivers it cleanly.
type flakySource struct {
	inner  Source
	script []sourceFault // consumed one per Next; empty = clean
	cur    *sim.Batch
}

type sourceFault int

const (
	deliverClean sourceFault = iota
	failTransient
	failTerminal
	deliverCorrupt // out-of-range week in one record: store must reject whole
)

func (f *flakySource) Remaining() int {
	n := f.inner.Remaining()
	if f.cur != nil {
		n++
	}
	return n
}

func (f *flakySource) Next() (sim.Batch, bool, error) {
	if f.cur == nil {
		b, ok, err := f.inner.Next()
		if !ok || err != nil {
			return b, ok, err
		}
		f.cur = &b
	}
	mode := deliverClean
	if len(f.script) > 0 {
		mode, f.script = f.script[0], f.script[1:]
	}
	switch mode {
	case failTransient:
		return sim.Batch{}, true, Transient(errors.New("feed outage"))
	case failTerminal:
		return sim.Batch{}, true, errors.New("feed gone for good")
	case deliverCorrupt:
		bad := *f.cur
		bad.Tests = append([]sim.LineTest(nil), f.cur.Tests...)
		bad.Tests[0].M.Week = data.Weeks
		return bad, true, nil
	}
	b := *f.cur
	f.cur = nil
	return b, true, nil
}

// TestPipelineRetriesTransientFaults is the regression for the old
// behaviour where any source error was fatal for the week: transient pull
// errors and corrupt (validation-rejected) batches must both be retried,
// and the week must complete exactly once with the same result a clean run
// gets.
func TestPipelineRetriesTransientFaults(t *testing.T) {
	ds, _, _ := fixture(t)

	run := func(script []sourceFault) (*Server, []WeekReport, []RetryEvent, error) {
		srv := newTestServer(t, Config{})
		src, err := sim.NewSource(ds, 40, 42)
		if err != nil {
			t.Fatal(err)
		}
		var reports []WeekReport
		var retries []RetryEvent
		pl, err := NewPipeline(srv, PipelineConfig{
			Source:  &flakySource{inner: SimFeed(src), script: script},
			Sleep:   func(time.Duration) {},
			OnWeek:  func(r WeekReport) { reports = append(reports, r) },
			OnRetry: func(e RetryEvent) { retries = append(retries, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		var runErr error
		for {
			ok, err := pl.Step(t.Context())
			if err != nil {
				runErr = err
				break
			}
			if !ok {
				break
			}
		}
		return srv, reports, retries, runErr
	}

	clean, cleanReports, _, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cleanReports) != 3 {
		t.Fatalf("clean run covered %d weeks", len(cleanReports))
	}

	// Two transient outages, then a corrupt delivery, spread over the run.
	script := []sourceFault{failTransient, deliverClean, deliverCorrupt, failTransient, deliverClean}
	srv, reports, retries, err := run(script)
	if err != nil {
		t.Fatalf("faulty run died: %v", err)
	}
	if len(reports) != 3 {
		t.Fatalf("faulty run covered %d weeks, want 3", len(reports))
	}
	if len(retries) != 3 {
		t.Fatalf("observed %d retries, want 3", len(retries))
	}
	for i, r := range reports {
		if r.Week != 40+i {
			t.Fatalf("week %d dispatched out of order (or twice): %+v", r.Week, reports)
		}
	}
	// Faults cleared, so the converged state matches the clean run exactly.
	for i := range reports {
		if reports[i].Stats != cleanReports[i].Stats || reports[i].Submitted != cleanReports[i].Submitted {
			t.Fatalf("week %d diverged from clean run:\nfaulty %+v\nclean  %+v",
				reports[i].Week, reports[i], cleanReports[i])
		}
	}
	snA, snB := srv.Store().Snapshot(), clean.Store().Snapshot()
	if snA.DS.NumLines != snB.DS.NumLines || len(snA.DS.Tickets) != len(snB.DS.Tickets) {
		t.Fatal("stores diverged after faults cleared")
	}
	if got := srv.m.pipelineRetries.Value(); got != 3 {
		t.Fatalf("pipelineRetries = %d", got)
	}

	// Backoff: every retry carries a positive, bounded, jittered delay.
	for _, e := range retries {
		if e.Backoff <= 0 || e.Backoff > 2*time.Second {
			t.Fatalf("retry backoff %v out of bounds", e.Backoff)
		}
	}

	// A terminal error still stops the loop (and names the week).
	_, _, _, err = run([]sourceFault{failTerminal})
	if err == nil || IsTransient(err) {
		t.Fatalf("terminal fault survived: %v", err)
	}

	// A fault that never clears exhausts the bounded budget rather than
	// spinning forever.
	persistent := make([]sourceFault, 64)
	for i := range persistent {
		persistent[i] = failTransient
	}
	_, _, _, err = run(persistent)
	if err == nil {
		t.Fatal("unbounded retry: persistent fault did not error out")
	}
}

// TestPipelineRetriesInjectedIngestFaults drives the store-ingest fault
// hook directly: the same validated batch must be re-ingested (not
// re-pulled) and the week completes once.
func TestPipelineRetriesInjectedIngestFaults(t *testing.T) {
	ds, _, _ := fixture(t)
	var fails int
	hooks := &FaultHooks{
		IngestTests: func(n int) error {
			if fails < 2 {
				fails++
				return Transient(errors.New("ingest hiccup"))
			}
			return nil
		},
	}
	srv := newTestServer(t, Config{Faults: hooks})
	src, err := sim.NewSource(ds, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	var reports []WeekReport
	pl, err := NewPipeline(srv, PipelineConfig{
		Source: SimFeed(src),
		Sleep:  func(time.Duration) {},
		OnWeek: func(r WeekReport) { reports = append(reports, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Retries != 2 {
		t.Fatalf("reports = %+v", reports)
	}
	if reports[0].IngestedTests != ds.NumLines {
		t.Fatalf("week ingested %d tests after retries", reports[0].IngestedTests)
	}
}

// TestPipelineRetriesStaleSnapshot makes rebuilds fail a few times after
// ingest: the pipeline must not rank over the stale snapshot, and must
// retry until the rebuild lands.
func TestPipelineRetriesStaleSnapshot(t *testing.T) {
	ds, _, _ := fixture(t)
	var mu sync.Mutex
	fails := 0
	hooks := &FaultHooks{
		SnapshotBuild: func(version uint64) error {
			mu.Lock()
			defer mu.Unlock()
			if fails < 2 {
				fails++
				return Transient(errors.New("rebuild fault"))
			}
			return nil
		},
	}
	srv := newTestServer(t, Config{Faults: hooks})
	src, err := sim.NewSource(ds, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	var reports []WeekReport
	pl, err := NewPipeline(srv, PipelineConfig{
		Source: SimFeed(src),
		Sleep:  func(time.Duration) {},
		OnWeek: func(r WeekReport) { reports = append(reports, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Retries != 2 {
		t.Fatalf("reports = %+v", reports)
	}
	sn := srv.Store().Snapshot()
	if sn == nil || sn.Version != srv.Store().Version() {
		t.Fatal("pipeline completed without a fresh snapshot")
	}
	if srv.Store().BuildFailures() != 2 {
		t.Fatalf("build failures = %d", srv.Store().BuildFailures())
	}
}

// TestStoreServesStaleSnapshotOnBuildFailure pins the API-side degradation
// contract: while rebuilds fail, readers get the last good snapshot (never
// nil, never torn) and the staleness gauge reports the lag.
func TestStoreServesStaleSnapshotOnBuildFailure(t *testing.T) {
	failing := false
	s := NewStore(2)
	s.SetFaults(&FaultHooks{SnapshotBuild: func(version uint64) error {
		if failing {
			return Transient(errors.New("rebuild fault"))
		}
		return nil
	}})
	if _, err := s.IngestTests([]TestRecord{{Line: 1, Week: 10, F: []float32{1}}}); err != nil {
		t.Fatal(err)
	}
	good := s.Snapshot()
	if good == nil || good.Version != 1 {
		t.Fatalf("snapshot = %+v", good)
	}
	failing = true
	if _, err := s.IngestTests([]TestRecord{{Line: 2, Week: 11, F: []float32{2}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sn := s.Snapshot()
		if sn != good {
			t.Fatalf("degraded read %d did not serve the last good snapshot", i)
		}
	}
	if s.SnapshotLag() != 1 || s.BuildFailures() != 3 {
		t.Fatalf("lag=%d failures=%d", s.SnapshotLag(), s.BuildFailures())
	}
	failing = false
	sn := s.Snapshot()
	if sn == nil || sn.Version != 2 || s.SnapshotLag() != 0 {
		t.Fatal("store did not recover once rebuilds healed")
	}
}

// TestLoadShed pins the admission gate: with MaxInflight=1 and a request
// parked in the handler, the next API request gets 503 + Retry-After while
// the monitoring endpoints still answer; once the slot frees, requests
// succeed again.
func TestLoadShed(t *testing.T) {
	srv := newTestServer(t, Config{MaxInflight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ingestWeeks(t, ts, 40, 40)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.scoreBarrier = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	parked := make(chan error, 1)
	go func() {
		buf, _ := json.Marshal(map[string]any{"examples": []map[string]any{{"line": 1, "week": 40}}})
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(buf))
		if err != nil {
			parked <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			parked <- fmt.Errorf("parked request: status %d", resp.StatusCode)
			return
		}
		parked <- nil
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}

	resp, body := getJSON(t, ts.URL+"/v1/rank?n=1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request under full load: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if len(body["error"]) == 0 {
		t.Fatal("shed response has no error message")
	}
	// The monitoring plane bypasses admission.
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz shed under load: %d", resp.StatusCode)
	}
	// scrapeMetric fails the test unless /metrics answers 200.
	if v := scrapeMetric(t, ts.URL, "nevermind_http_load_shed_total"); v == 0 {
		t.Fatal("nevermind_http_load_shed_total never moved")
	}

	close(release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	// Slot freed: healthy traffic flows again (retry briefly; the slot
	// releases after the response is written).
	okAgain := false
	for i := 0; i < 50; i++ {
		resp, _ := getJSON(t, ts.URL+"/v1/rank?n=1")
		if resp.StatusCode == http.StatusOK {
			okAgain = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !okAgain {
		t.Fatal("requests still shed after load cleared")
	}
}

// TestRequestTimeout pins the deadline middleware: a handler stalled by an
// injected latency fault answers 503 within the budget instead of hanging
// the client, and the timeout gauge moves.
func TestRequestTimeout(t *testing.T) {
	block := make(chan struct{})
	hooks := &FaultHooks{Request: func(endpoint string) {
		if endpoint == "/v1/rank" {
			<-block
		}
	}}
	srv := newTestServer(t, Config{RequestTimeout: 100 * time.Millisecond, Faults: hooks})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Ingest directly into the store: the 100ms deadline under test also
	// covers /v1/ingest, and a full fixture week over HTTP can legitimately
	// exceed it on a slow box (race detector, one core) — that's not the
	// behaviour this test pins.
	ds, _, _ := fixture(t)
	tests, tickets := recordsFor(ds, 40, 40)
	if _, err := srv.Store().IngestTests(tests); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Store().IngestTickets(tickets); err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	resp, err := http.Get(ts.URL + "/v1/rank?n=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled request: status %d", resp.StatusCode)
	}
	if el := time.Since(t0); el > 3*time.Second {
		t.Fatalf("timeout answered after %v", el)
	}
	close(block)

	// The stalled handler unwinds and the timeout counter records it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.m.timeouts.Value() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeouts gauge never moved")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Healthy traffic is unaffected.
	if resp, body := getJSON(t, ts.URL+"/v1/rank?n=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request after timeout: %d %s", resp.StatusCode, body["error"])
	}
}

// TestReloadProbeFault pins the reload degradation: an injected probe fault
// aborts the swap, the old generation keeps serving, and the failure gauge
// moves.
func TestReloadProbeFault(t *testing.T) {
	ds, pred, _ := fixture(t)
	_ = ds
	dir := t.TempDir()
	path := dir + "/pred.gob.gz"
	if err := pred.Save(path); err != nil {
		t.Fatal(err)
	}
	arm := false
	hooks := &FaultHooks{ReloadProbe: func() error {
		if arm {
			return Transient(errors.New("probe fault"))
		}
		return nil
	}}
	srv := newTestServer(t, Config{PredictorPath: path, Faults: hooks})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ingestWeeks(t, ts, 40, 40)

	arm = true
	gen := srv.Models()
	resp, body := postJSON(t, ts.URL+"/v1/reload", nil)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("reload succeeded through a probe fault")
	}
	if len(body["error"]) == 0 {
		t.Fatal("failed reload returned no message")
	}
	if srv.Models() != gen {
		t.Fatal("failed reload swapped the model generation")
	}
	if srv.m.reloadFailures.Value() != 1 {
		t.Fatalf("reloadFailures = %d", srv.m.reloadFailures.Value())
	}
	arm = false
	if resp, body := postJSON(t, ts.URL+"/v1/reload", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload after fault cleared: %d %s", resp.StatusCode, body["error"])
	}
	if srv.Models() == gen {
		t.Fatal("healed reload did not swap generations")
	}
}
