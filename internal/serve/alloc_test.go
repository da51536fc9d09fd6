package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// steadyStateAllocBudget is the per-request allocation ceiling for the
// scoring hot paths once caches are warm. The handlers themselves allocate
// nothing (pooled scratch, prerendered fragments); the budget covers what
// net/http's mux and instrumentation inherently cost per request.
const steadyStateAllocBudget = 10

// benchSink is a reusable ResponseWriter for alloc measurements:
// httptest.NewRecorder allocates per request, which would drown the signal.
type benchSink struct {
	h    http.Header
	code int
	n    int
}

func newBenchSink() *benchSink           { return &benchSink{h: make(http.Header, 4)} }
func (w *benchSink) Header() http.Header { return w.h }
func (w *benchSink) WriteHeader(c int)   { w.code = c }
func (w *benchSink) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
func (w *benchSink) reset() { w.code = 0; w.n = 0 }

// allocServer builds a served store with the fixture's recent weeks loaded,
// for steady-state measurements.
func allocServer(t *testing.T) *Server {
	t.Helper()
	srv := newTestServer(t, Config{Shards: 4})
	ds, _, _ := fixture(t)
	tests, tickets := recordsFor(ds, 30, 43)
	if _, err := srv.Store().IngestTests(tests); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Store().IngestTickets(tickets); err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestScoreSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	srv := allocServer(t)
	ds, _, _ := fixture(t)

	type ex struct {
		Line int `json:"line"`
		Week int `json:"week"`
	}
	examples := make([]ex, ds.NumLines)
	for l := range examples {
		examples[l] = ex{Line: l, Week: 40}
	}
	body, err := json.Marshal(map[string]any{"examples": examples})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/score", rd)
	sink := newBenchSink()
	handler := srv.Handler()
	post := func() {
		rd.Seek(0, io.SeekStart)
		sink.reset()
		handler.ServeHTTP(sink, req)
		if sink.code != http.StatusOK {
			t.Fatalf("score: status %d", sink.code)
		}
	}
	post() // builds the snapshot, the week table and the pooled scratch
	post()
	if allocs := testing.AllocsPerRun(50, post); allocs > steadyStateAllocBudget {
		t.Errorf("steady-state /v1/score allocates %.1f/op, budget %d", allocs, steadyStateAllocBudget)
	}
}

func TestRankSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	srv := allocServer(t)

	req := httptest.NewRequest(http.MethodGet, "/v1/rank", nil)
	sink := newBenchSink()
	handler := srv.Handler()
	get := func() {
		sink.reset()
		handler.ServeHTTP(sink, req)
		if sink.code != http.StatusOK {
			t.Fatalf("rank: status %d", sink.code)
		}
	}
	get()
	get()
	if allocs := testing.AllocsPerRun(50, get); allocs > steadyStateAllocBudget {
		t.Errorf("steady-state /v1/rank allocates %.1f/op, budget %d", allocs, steadyStateAllocBudget)
	}
}

// TestBodyParsersDoNotAllocate pins the hand decoders' own cost at zero:
// with its output buffers already grown, parsing a /v1/score or /v1/ingest
// body allocates nothing, whatever its size. A parser that escapes to the
// heap costs one allocation per request. A bulk ingest body decoded in
// pieces allocates only its goroutine launches: one per piece but the last,
// so at most GOMAXPROCS-1.
func TestBodyParsersDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	for _, lines := range []int{1, 4000} {
		body := []byte(`{"examples":[`)
		for l := 0; l < lines; l++ {
			if l > 0 {
				body = append(body, ',')
			}
			body = fmt.Appendf(body, `{"line":%d,"week":40}`, l)
		}
		body = append(body, "]}"...)
		exs := make([]ScoreExample, 0, lines)
		score := func() {
			got, err := parseScore(body, exs)
			if err != nil || len(got) != lines {
				t.Fatalf("parseScore: %d examples, %v", len(got), err)
			}
		}
		if allocs := testing.AllocsPerRun(20, score); allocs != 0 {
			t.Errorf("parseScore of %d examples allocates %.2f/op, want 0", lines, allocs)
		}
	}

	var ib IngestBody
	record := []byte(perfbenchRecord)
	ingest := func() {
		if err := ib.Parse(record); err != nil || !ib.Spanned() {
			t.Fatalf("parse: spanned %v, %v", ib.Spanned(), err)
		}
	}
	ingest() // grows ib's buffers
	if allocs := testing.AllocsPerRun(20, ingest); allocs != 0 {
		t.Errorf("IngestBody.Parse allocates %.2f/op, want 0", allocs)
	}

	// AllocsPerRun runs at GOMAXPROCS=1, where Parse decodes serially, so
	// the bulk body's cut search takes the CPU count from outside it (two on
	// a one-CPU host, so that the piece path runs).
	procs := max(runtime.GOMAXPROCS(0), 2)
	bulk := bulkIngestBody(2048)
	cut := func(dst []int, b []byte, start int) []int {
		return testCuts(dst, b, start, minIngestPiece, procs)
	}
	ingestBulk := func() {
		if err := ib.decode(bulk, cut); err != nil || !ib.Spanned() || len(ib.Tests) != 2048 {
			t.Fatalf("parse: %d tests, spanned %v, %v", len(ib.Tests), ib.Spanned(), err)
		}
	}
	ingestBulk() // grows the pieces' buffers
	if len(ib.cuts) == 0 {
		t.Fatalf("a %d-byte body was not cut", len(bulk))
	}
	if allocs := testing.AllocsPerRun(20, ingestBulk); allocs > float64(procs-1) {
		t.Errorf("IngestBody.decode of a bulk body in %d pieces allocates %.2f/op, want at most %d (its goroutine launches)",
			len(ib.cuts)+1, allocs, procs-1)
	}
}
