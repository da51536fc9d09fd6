package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"nevermind/internal/data"
	"nevermind/internal/obs"
	"nevermind/internal/sim"
)

// metricsFixtureServer runs the fixture pipeline over a few weeks and
// exercises every instrumented route once, so /metrics has seen traffic on
// each series family before the test reads it.
func metricsFixtureServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	ds, pred, loc := fixture(t)
	srv, err := New(Config{Predictor: pred, Locator: loc})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sim.NewSource(ds, 40, 42)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(srv, PipelineConfig{
		Source: SimFeed(src),
		Sleep:  func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, url := range []string{"/healthz", "/v1/rank?week=42&n=3", "/v1/trace"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
	}
	return srv, ts
}

// scrapeMetric GETs base's /metrics and returns the value of one sample,
// named exactly as exposed (family name plus label set, if any). It fails
// the test if the scrape does not answer 200 or the series is absent.
func scrapeMetric(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: value %q: %v", series, v, err)
			}
			return f
		}
	}
	t.Fatalf("series %s absent from /metrics", series)
	return 0
}

// normalizeMetrics replaces every sample value with <v>, keeping the parts
// of the exposition that are a stability contract: family names, HELP and
// TYPE lines, series order, label names and values (including histogram le
// bounds). Values vary run to run (timings, contention); the shape must not.
func normalizeMetrics(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		lines[i] = line[:sp] + " <v>"
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsGolden pins the Prometheus exposition shape of /metrics after
// a fixed-seed pipeline run: which families exist, their HELP/TYPE lines,
// which label children each vector carries, and the histogram bucket bounds.
// Sample values are normalized (they are timings). Run with -update after an
// intentional contract change; the golden diff documents it in review.
func TestMetricsGolden(t *testing.T) {
	_, ts := metricsFixtureServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q is not the Prometheus text exposition type", ct)
	}
	var raw strings.Builder
	if _, err := io.Copy(&raw, resp.Body); err != nil {
		t.Fatal(err)
	}
	got := normalizeMetrics(raw.String())

	goldenPath := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/serve -run TestMetricsGolden -update` to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/metrics exposition shape diverged from golden:\n%s", diffLines(string(want), got))
	}
}

// TestMetricsCoverage spot-checks live values the golden normalizes away:
// the series the acceptance contract names must not only exist but move.
func TestMetricsCoverage(t *testing.T) {
	srv, ts := metricsFixtureServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	// Every value-bearing line for these prefixes must be present, and the
	// named ones nonzero after a three-week run plus the probe requests.
	for _, want := range []string{
		`nevermind_http_requests_total{route="healthz"} 1`,
		`nevermind_http_requests_total{route="rank"} 1`,
		`nevermind_pipeline_ticks_total 3`,
		`nevermind_pipeline_week 42`,
		`nevermind_degraded 0`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing exact sample %q", want)
		}
	}
	for _, family := range []string{
		"nevermind_http_request_duration_seconds_bucket",
		"nevermind_pipeline_stage_duration_seconds_bucket",
		"nevermind_store_ingest_duration_seconds_bucket",
		"nevermind_store_snapshot_build_duration_seconds_sum",
		"nevermind_store_filtered_records_total",
		"nevermind_trace_spans_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("family %s absent from /metrics", family)
		}
	}

	// Stage histograms counted each stage exactly once per completed week.
	stages := srv.m.stageDur.Snapshots()
	for _, stage := range pipelineStages {
		if c := stages[stage].Count; c != 3 {
			t.Errorf("stage %s observed %d times, want 3", stage, c)
		}
	}
	// The request latency histogram for rank saw exactly the one probe.
	if lat := srv.m.latency.Snapshots()["rank"]; lat.Count != 1 || lat.SumNs <= 0 {
		t.Errorf("rank latency snapshot: count=%d sum=%d", lat.Count, lat.SumNs)
	}
}

// TestPprofGate: net/http/pprof mounts only behind Config.EnablePprof —
// profiling is opt-in, never ambient.
func TestPprofGate(t *testing.T) {
	_, pred, _ := fixture(t)
	for _, enabled := range []bool{false, true} {
		srv, err := New(Config{Predictor: pred, EnablePprof: enabled})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			ts.Close()
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		if enabled && resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof enabled but index answered %d", resp.StatusCode)
		}
		if !enabled && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("pprof disabled but index answered %d", resp.StatusCode)
		}
	}
}

// TestTraceEndpoint: /v1/trace serves the flight recorder with the span-leak
// invariant intact — after a quiesced run every started span has finished,
// spans arrive oldest first, and only known stages appear.
func TestTraceEndpoint(t *testing.T) {
	_, ts := metricsFixtureServer(t)
	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Started == 0 || snap.Started != snap.Finished || snap.Active != 0 {
		t.Fatalf("span leak after quiescence: started=%d finished=%d active=%d",
			snap.Started, snap.Finished, snap.Active)
	}
	if len(snap.Spans) == 0 {
		t.Fatal("no spans retained after a pipeline run")
	}
	known := make(map[string]bool, len(pipelineStages)+len(driftStages))
	for _, s := range pipelineStages {
		known[s] = true
	}
	for _, s := range driftStages {
		known[s] = true
	}
	var lastSeq uint64
	for _, sp := range snap.Spans {
		if !known[sp.Stage] {
			t.Fatalf("span with unknown stage %q", sp.Stage)
		}
		if sp.Seq <= lastSeq {
			t.Fatalf("spans not in ascending seq order: %d after %d", sp.Seq, lastSeq)
		}
		lastSeq = sp.Seq
		if sp.Duration < 0 {
			t.Fatalf("negative duration on span %+v", sp)
		}
	}
	// A clean fixture run retries nothing and degrades nothing.
	for _, sp := range snap.Spans {
		if sp.Err != "" || sp.Degraded {
			t.Fatalf("clean run recorded a failed/degraded span: %+v", sp)
		}
	}
}

// TestStoreAllocatesOnlyWrittenChunks pins nevermind_store_grid_bytes on a
// 4,096-line store (4 grid chunks a week): fed weeks 30-43, the grid holds
// exactly the 14 weeks' chunks, and after one publish and a week-44 ingest
// of every line, 15 weeks' worth, as does a checkpoint restore of that;
// every other week costs no cell.
func TestStoreAllocatesOnlyWrittenChunks(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const lines, chunks = 4096, 4
	chunkBytes := float64(data.GridChunkLines) * float64(unsafe.Sizeof(data.Measurement{}))
	ingestWeek := func(w int) {
		recs := make([]TestRecord, lines)
		for l := range recs {
			recs[l] = TestRecord{Line: data.LineID(l), Week: w, Missing: l%7 == 0, F: []float32{float32(w), float32(l)}}
		}
		if _, err := srv.Store().IngestTests(recs); err != nil {
			t.Fatal(err)
		}
	}
	for w := 30; w <= 43; w++ {
		ingestWeek(w)
	}
	if got, want := scrapeMetric(t, ts.URL, "nevermind_store_grid_bytes"), 14*chunks*chunkBytes; got != want {
		t.Fatalf("weeks 30-43: grid holds %.0f bytes, want %.0f", got, want)
	}
	if srv.Store().Snapshot() == nil {
		t.Fatal("no snapshot")
	}
	ingestWeek(44)
	if got, want := scrapeMetric(t, ts.URL, "nevermind_store_grid_bytes"), 15*chunks*chunkBytes; got != want {
		t.Fatalf("after a publish and week 44: grid holds %.0f bytes, want %.0f", got, want)
	}
	// A checkpoint restore allocates only the weeks the checkpoint holds.
	restored := NewStore(2)
	if _, err := restored.ReadCheckpoint(bytes.NewReader(writeCkptBytes(t, srv.Store()))); err != nil {
		t.Fatal(err)
	}
	if got, want := float64(restored.GridBytes()), 15*chunks*chunkBytes; got != want {
		t.Fatalf("restored store's grid holds %.0f bytes, want %.0f", got, want)
	}
	if got := scrapeMetric(t, ts.URL, "nevermind_go_heap_goal_bytes"); got <= 0 {
		t.Fatalf("heap goal reads %v", got)
	}
}
