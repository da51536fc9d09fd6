package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/features"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	ds, pred, loc := fixture(t)
	_ = ds
	if cfg.Predictor == nil {
		cfg.Predictor = pred
	}
	if cfg.Locator == nil {
		cfg.Locator = loc
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp, out
}

func ingestWeeks(t *testing.T, ts *httptest.Server, lo, hi int) {
	t.Helper()
	ds, _, _ := fixture(t)
	tests, tickets := recordsFor(ds, lo, hi)
	resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{"tests": tests, "tickets": tickets})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body["error"])
	}
}

func TestServerRequiresPredictor(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("server built without a predictor")
	}
}

func TestServerEndpoints(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ds, pred, _ := fixture(t)

	// Before any ingest, scoring surfaces are unavailable but health is up.
	resp, _ := postJSON(t, ts.URL+"/v1/score", map[string]any{"examples": []map[string]any{{"line": 0, "week": 40}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("score on empty store: %d", resp.StatusCode)
	}
	resp, health := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(health["status"]) != `"ok"` {
		t.Fatalf("healthz: %d %s", resp.StatusCode, health["status"])
	}

	ingestWeeks(t, ts, 39, 41)

	// Score a handful of lines and check against the direct scoring path.
	examples := []map[string]any{{"line": 0, "week": 41}, {"line": 5, "week": 41}, {"line": 9, "week": 40}}
	resp, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"examples": examples})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score: %d %s", resp.StatusCode, body["error"])
	}
	var preds []predictionJSON
	if err := json.Unmarshal(body["predictions"], &preds); err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 || preds[0].Line != 0 || preds[2].Week != 40 {
		t.Fatalf("score order not preserved: %+v", preds)
	}
	for _, p := range preds {
		if p.Probability <= 0 || p.Probability >= 1 {
			t.Fatalf("probability %v out of (0,1)", p.Probability)
		}
	}

	// Rank: defaults to the latest week and the configured budget, n= trims.
	resp, body = getJSON(t, ts.URL+"/v1/rank?n=7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: %d %s", resp.StatusCode, body["error"])
	}
	if string(body["week"]) != "41" {
		t.Fatalf("rank week defaulted to %s, want 41", body["week"])
	}
	if string(body["population"]) != fmt.Sprint(ds.NumLines) {
		t.Fatalf("rank population %s, want %d", body["population"], ds.NumLines)
	}
	if err := json.Unmarshal(body["predictions"], &preds); err != nil {
		t.Fatal(err)
	}
	if len(preds) != 7 {
		t.Fatalf("rank returned %d predictions, want 7", len(preds))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].Score > preds[i-1].Score {
			t.Fatal("rank not sorted by score")
		}
	}
	// The server's ranking head must agree with the library's.
	top, err := pred.TopN(srv.Store().Snapshot().DS, 41)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if preds[i].Line != top[i].Line || preds[i].Score != top[i].Score {
			t.Fatalf("rank[%d] = %+v, library says %+v", i, preds[i], top[i])
		}
	}

	// Locate returns a full posterior over the locator's dispositions.
	resp, body = postJSON(t, ts.URL+"/v1/locate", map[string]any{"line": preds[0].Line, "week": 41})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locate: %d %s", resp.StatusCode, body["error"])
	}
	var disps []struct {
		Name        string  `json:"name"`
		Location    string  `json:"location"`
		Probability float64 `json:"probability"`
	}
	if err := json.Unmarshal(body["dispositions"], &disps); err != nil {
		t.Fatal(err)
	}
	if len(disps) == 0 {
		t.Fatal("locate returned no dispositions")
	}
	// Dispositions carry independent one-vs-rest posteriors in [0,1],
	// served best first.
	for i, d := range disps {
		if d.Name == "" || d.Location == "" {
			t.Fatalf("disposition %d missing catalog fields: %+v", i, d)
		}
		if i > 0 && d.Probability > disps[i-1].Probability {
			t.Fatal("locate not sorted by probability")
		}
		if d.Probability < 0 || d.Probability > 1 {
			t.Fatalf("posterior %v out of [0,1]", d.Probability)
		}
	}

	// Bad requests name the problem.
	for _, tc := range []struct {
		url  string
		body any
	}{
		{"/v1/score", map[string]any{"examples": []map[string]any{{"line": ds.NumLines + 5, "week": 41}}}},
		{"/v1/score", map[string]any{"examples": []map[string]any{{"line": 0, "week": data.Weeks}}}},
		{"/v1/score", map[string]any{"examples": []map[string]any{}}},
		{"/v1/score", map[string]any{"unknown_field": 1}},
		{"/v1/locate", map[string]any{"line": 0, "week": 41, "model": "nonsense"}},
		{"/v1/ingest", map[string]any{"tests": []map[string]any{{"line": -1, "week": 0}}}},
	} {
		resp, body := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with %v: status %d", tc.url, tc.body, resp.StatusCode)
		}
		if len(body["error"]) == 0 {
			t.Fatalf("%s error response has no message", tc.url)
		}
	}
	if resp, _ := http.Get(ts.URL + "/v1/score"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on a POST route: %d", resp.StatusCode)
	}
	// Query params with trailing garbage must be rejected, not silently
	// parsed as their numeric prefix.
	for _, q := range []string{"week=41xyz", "week=1e2", "n=7abc", "n=0"} {
		resp, body := getJSON(t, ts.URL+"/v1/rank?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("rank?%s: status %d", q, resp.StatusCode)
		}
		if len(body["error"]) == 0 {
			t.Fatalf("rank?%s error response has no message", q)
		}
	}

	// The monitoring surface reflects the traffic above.
	for _, route := range []string{"score", "rank", "ingest"} {
		if v := scrapeMetric(t, ts.URL, `nevermind_http_requests_total{route="`+route+`"}`); v == 0 {
			t.Fatalf("request counter for %s missed its traffic", route)
		}
	}
	if v := scrapeMetric(t, ts.URL, `nevermind_http_request_errors_total{route="score"}`); v == 0 {
		t.Fatal("error counter missed the bad score requests")
	}
	if v := scrapeMetric(t, ts.URL, "nevermind_store_lines"); v != float64(ds.NumLines) {
		t.Fatalf("nevermind_store_lines = %v, want %d", v, ds.NumLines)
	}
}

// TestScoreFreshAfterReingest: a score repeated with the same example list
// after a re-ingest that changed the data must reflect the new store
// contents. Week score tables belong to one snapshot, so nothing computed
// for the old snapshot may answer for the new one.
func TestScoreFreshAfterReingest(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ds, _, _ := fixture(t)

	ingestWeeks(t, ts, 39, 41)

	examples := make([]map[string]any, 0, 16)
	for l := 0; l < 16; l++ {
		examples = append(examples, map[string]any{"line": l * 13 % ds.NumLines, "week": 41})
	}
	score := func() (uint64, []predictionJSON) {
		resp, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"examples": examples})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score: %d %s", resp.StatusCode, body["error"])
		}
		var version uint64
		if err := json.Unmarshal(body["version"], &version); err != nil {
			t.Fatal(err)
		}
		var preds []predictionJSON
		if err := json.Unmarshal(body["predictions"], &preds); err != nil {
			t.Fatal(err)
		}
		return version, preds
	}
	v0, _ := score()
	score() // answered from the first snapshot's week table

	// Replay week 41 with perturbed measurements — re-ingested tests, as a
	// corrected upstream feed would send.
	tests, _ := recordsFor(ds, 41, 41)
	for i := range tests {
		if !tests[i].Missing {
			for j := range tests[i].F {
				tests[i].F[j] += 3
			}
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{"tests": tests})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-ingest: %d %s", resp.StatusCode, body["error"])
	}

	v1, got := score()
	if v1 == v0 {
		t.Fatal("re-ingest did not bump the served version")
	}
	// Ground truth: the same predictor scoring the new snapshot directly.
	pred := srv.Models().Pred
	sn := srv.Store().Snapshot()
	ex := make([]features.Example, len(examples))
	for i, e := range examples {
		ex[i] = features.Example{Line: data.LineID(e["line"].(int)), Week: e["week"].(int)}
	}
	want, err := pred.PredictExamples(sn.DS, sn.Ix, ex)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Score != want[i].Score || got[i].Probability != want[i].Probability {
			t.Fatalf("post-reingest score %d served stale: %+v, direct truth %+v", i, got[i], want[i])
		}
	}
}

// TestServersShareNoEncodeCache pins the cross-store aliasing bug the
// in-process fleet once exposed, as behaviour. Two servers share one
// predictor and one locator and ingest the same line ids with different
// values up to the same version. Each must answer score, rank and locate
// exactly as reloaded copies of the models compute on its own snapshot, so
// nothing the shared models hold may carry one store's encodes into the
// other's answers.
func TestServersShareNoEncodeCache(t *testing.T) {
	ds, _, _ := fixture(t)
	pcfg := core.DefaultPredictorConfig(ds.NumLines, 11)
	pcfg.Rounds = 10
	pcfg.MaxSelectExamples = 4000
	pred, err := core.TrainPredictor(ds, features.WeekRange(36, 38), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	lcfg := core.DefaultLocatorConfig(11)
	lcfg.Rounds = 5
	lcfg.MinCases = 5
	cases := core.CasesFromNotes(ds, data.FirstSaturday, data.SaturdayOf(40)-1)
	loc, err := core.TrainLocator(ds, cases, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reference copies that no server has scored through.
	dir := t.TempDir()
	if err := pred.Save(filepath.Join(dir, "pred.gob.gz")); err != nil {
		t.Fatal(err)
	}
	if err := loc.Save(filepath.Join(dir, "loc.gob.gz")); err != nil {
		t.Fatal(err)
	}
	refPred, err := core.LoadPredictor(filepath.Join(dir, "pred.gob.gz"))
	if err != nil {
		t.Fatal(err)
	}
	refLoc, err := core.LoadLocator(filepath.Join(dir, "loc.gob.gz"))
	if err != nil {
		t.Fatal(err)
	}

	const week = 41
	tests, tickets := recordsFor(ds, 39, week)
	shifted := make([]TestRecord, len(tests))
	for i, r := range tests {
		r.F = append([]float32(nil), r.F...)
		for j := range r.F {
			r.F[j] += 3
		}
		shifted[i] = r
	}
	var urls [2]string
	var stores [2]*Store
	for i, recs := range [][]TestRecord{tests, shifted} {
		srv, err := New(Config{Predictor: pred, Locator: loc})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{"tests": recs, "tickets": tickets})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d ingest: %d %s", i, resp.StatusCode, body["error"])
		}
		urls[i], stores[i] = ts.URL, srv.Store()
	}
	if stores[0].Version() != stores[1].Version() {
		t.Fatalf("stores at versions %d and %d, want one version", stores[0].Version(), stores[1].Version())
	}

	examples := make([]map[string]any, 0, 32)
	ex := make([]features.Example, 0, 32)
	for l := 0; l < 32; l++ {
		line := l * 61 % ds.NumLines
		examples = append(examples, map[string]any{"line": line, "week": week})
		ex = append(ex, features.Example{Line: data.LineID(line), Week: week})
	}
	const locLine = 7
	// checkLocate compares the served locate answer with the reference
	// locator on a freshly built ticket index over the server's snapshot.
	checkLocate := func(tag string, url string, sn *Snapshot) {
		t.Helper()
		resp, body := postJSON(t, url+"/v1/locate", map[string]any{"line": locLine, "week": week})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s locate: %d %s", tag, resp.StatusCode, body["error"])
		}
		var disps []struct {
			ID          int     `json:"id"`
			Probability float64 `json:"probability"`
		}
		if err := json.Unmarshal(body["dispositions"], &disps); err != nil {
			t.Fatal(err)
		}
		post, err := refLoc.Posteriors(sn.DS, []core.DispatchCase{{Line: locLine, Week: week}}, core.ModelCombined)
		if err != nil {
			t.Fatal(err)
		}
		wantPost := make(map[int]float64, len(refLoc.Dispositions))
		for j, d := range refLoc.Dispositions {
			wantPost[int(d)] = post[0][j]
		}
		if len(disps) != len(wantPost) {
			t.Fatalf("%s locate: %d dispositions, model has %d", tag, len(disps), len(wantPost))
		}
		for _, d := range disps {
			if d.Probability != wantPost[d.ID] {
				t.Errorf("%s locate disposition %d: served %v, reference model says %v", tag, d.ID, d.Probability, wantPost[d.ID])
				break
			}
		}
	}
	var served [2][]predictionJSON
	for i, url := range urls {
		sn := stores[i].Snapshot()

		resp, body := postJSON(t, url+"/v1/score", map[string]any{"examples": examples})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d score: %d %s", i, resp.StatusCode, body["error"])
		}
		if err := json.Unmarshal(body["predictions"], &served[i]); err != nil {
			t.Fatal(err)
		}
		want, err := refPred.PredictExamples(sn.DS, sn.Ix, ex)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range served[i] {
			if p.Score != want[j].Score || p.Probability != want[j].Probability {
				t.Errorf("server %d score %d: served %+v, reference model says %+v", i, j, p, want[j])
				break
			}
		}

		resp, body = getJSON(t, fmt.Sprintf("%s/v1/rank?week=%d&n=10", url, week))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d rank: %d %s", i, resp.StatusCode, body["error"])
		}
		var ranked []predictionJSON
		if err := json.Unmarshal(body["predictions"], &ranked); err != nil {
			t.Fatal(err)
		}
		top, err := refPred.TopN(sn.DS, week)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) != 10 || len(top) < 10 {
			t.Fatalf("server %d rank: %d served, %d from the model", i, len(ranked), len(top))
		}
		for j, p := range ranked {
			if p.Line != top[j].Line || p.Score != top[j].Score {
				t.Errorf("server %d rank[%d]: served %+v, reference model says %+v", i, j, p, top[j])
				break
			}
		}

		checkLocate(fmt.Sprintf("server %d", i), url, sn)

		// Locate answers from the snapshot's own ticket index: a delta with
		// no tickets shares its base's index, one with tickets rebuilds it,
		// and either way the answer must match a fresh index.
		recs, _ := recordsFor(ds, week+1, week+1)
		if _, err := stores[i].IngestTests(recs[:50]); err != nil {
			t.Fatal(err)
		}
		shared := stores[i].Snapshot()
		if shared.Ix != sn.Ix {
			t.Fatalf("server %d: a test-only delta rebuilt the ticket index", i)
		}
		checkLocate(fmt.Sprintf("server %d test-only delta", i), url, shared)
		if _, err := stores[i].IngestTickets([]TicketRecord{{
			ID: 1 << 30, Line: locLine, Day: data.SaturdayOf(week) - 2, Category: uint8(data.CatCustomerEdge),
		}}); err != nil {
			t.Fatal(err)
		}
		withTicket := stores[i].Snapshot()
		if withTicket.Ix == shared.Ix {
			t.Fatalf("server %d: a ticket delta kept its base's ticket index", i)
		}
		checkLocate(fmt.Sprintf("server %d ticket delta", i), url, withTicket)
	}
	// The servers hold different data, so a pass above proves each answered
	// from its own store.
	same := true
	for j := range served[0] {
		same = same && served[0][j].Score == served[1][j].Score
	}
	if same {
		t.Fatal("both servers scored identically; the shifted ingest changed nothing")
	}
}

// TestConcurrentIngestScore hammers ingest, score, rank and snapshot reads
// from many goroutines at once; run under -race it is the store's
// correctness-under-concurrency test.
func TestConcurrentIngestScore(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ds, _, _ := fixture(t)

	ingestWeeks(t, ts, 40, 40) // seed the store so scoring never 503s

	const iters = 8
	var wg sync.WaitGroup
	fail := make(chan string, 64)
	// Two ingest writers replaying different weeks.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(week int) {
			defer wg.Done()
			tests, tickets := recordsFor(ds, week, week)
			for i := 0; i < iters; i++ {
				buf, _ := json.Marshal(map[string]any{"tests": tests, "tickets": tickets})
				resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(buf))
				if err != nil {
					fail <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail <- fmt.Sprintf("ingest week %d: status %d", week, resp.StatusCode)
					return
				}
			}
		}(40 + w)
	}
	// Two score readers and one rank reader racing the writers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body := map[string]any{"examples": []map[string]any{
					{"line": (r*31 + i*7) % ds.NumLines, "week": 40},
					{"line": (r*13 + i*3) % ds.NumLines, "week": 40},
				}}
				buf, _ := json.Marshal(body)
				resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(buf))
				if err != nil {
					fail <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail <- fmt.Sprintf("score: status %d", resp.StatusCode)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Get(ts.URL + "/v1/rank?week=40&n=5")
			if err != nil {
				fail <- err.Error()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail <- fmt.Sprintf("rank: status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	if t.Failed() {
		t.FailNow()
	}
	if srv.Store().NumLines() != ds.NumLines {
		t.Fatalf("store holds %d lines after the storm", srv.Store().NumLines())
	}
	if sn := srv.Store().Snapshot(); sn == nil || sn.DS.Validate() != nil {
		t.Fatal("post-storm snapshot invalid")
	}
}

// TestGracefulShutdown proves the drain contract: once the context is
// cancelled the listener refuses new connections, but a request already in
// flight runs to completion and Serve only returns after it has.
func TestGracefulShutdown(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 5 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	ingestWeeks(t, ts, 40, 40)
	ts.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.scoreBarrier = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	// Park one request inside the score handler.
	scored := make(chan error, 1)
	go func() {
		buf, _ := json.Marshal(map[string]any{"examples": []map[string]any{{"line": 1, "week": 40}}})
		resp, err := http.Post("http://"+addr+"/v1/score", "application/json", bytes.NewReader(buf))
		if err != nil {
			scored <- err
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			scored <- fmt.Errorf("in-flight request got status %d", resp.StatusCode)
			return
		}
		scored <- nil
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}

	cancel()
	// The listener must close promptly even though a request is in flight.
	refused := false
	for i := 0; i < 100; i++ {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			refused = true
			break
		}
		c.Close()
		time.Sleep(20 * time.Millisecond)
	}
	if !refused {
		t.Fatal("listener still accepting after shutdown began")
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request still in flight", err)
	default:
	}

	close(release)
	if err := <-scored; err != nil {
		t.Fatalf("in-flight request failed across the drain: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}
}

// TestHotReloadEquality proves the reload contract: reloading the same model
// file swaps the model generation and the pre/post-reload scores are
// bit-identical.
func TestHotReloadEquality(t *testing.T) {
	ds, pred, loc := fixture(t)
	dir := t.TempDir()
	predPath := filepath.Join(dir, "pred.gob.gz")
	locPath := filepath.Join(dir, "loc.gob.gz")
	if err := pred.Save(predPath); err != nil {
		t.Fatal(err)
	}
	if err := loc.Save(locPath); err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, Config{PredictorPath: predPath, LocatorPath: locPath})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ingestWeeks(t, ts, 40, 41)

	score := func() []predictionJSON {
		examples := make([]map[string]any, 0, 32)
		for l := 0; l < 32; l++ {
			examples = append(examples, map[string]any{"line": l * 17 % ds.NumLines, "week": 41})
		}
		resp, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"examples": examples})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score: %d %s", resp.StatusCode, body["error"])
		}
		var preds []predictionJSON
		if err := json.Unmarshal(body["predictions"], &preds); err != nil {
			t.Fatal(err)
		}
		return preds
	}

	before := score()
	gen0 := srv.Models()
	resp, body := postJSON(t, ts.URL+"/v1/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body["error"])
	}
	var res ReloadResult
	raw, _ := json.Marshal(body)
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatalf("same-file reload reported non-identical scores: %+v", res)
	}
	if res.ProbeExamples == 0 {
		t.Fatal("reload probe scored nothing despite a populated store")
	}
	if res.MaxAbsDiff != 0 {
		t.Fatalf("same-file reload max diff %v", res.MaxAbsDiff)
	}
	if srv.Models() == gen0 {
		t.Fatal("reload did not swap the model generation")
	}
	after := score()
	if len(before) != len(after) {
		t.Fatal("score batch sizes differ")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("score %d changed across reload: %+v vs %+v", i, before[i], after[i])
		}
	}

	// A reload counter must have moved.
	if v := scrapeMetric(t, ts.URL, "nevermind_model_reloads_total"); v != 1 {
		t.Fatalf("nevermind_model_reloads_total = %v, want 1", v)
	}

	// Operational settings set on the process (the -budget and -workers
	// flags) survive a reload instead of reverting to the model file's.
	cur := srv.Models().Pred
	cur.Cfg.BudgetN = 123
	cur.Cfg.Workers = 3
	resp, body = postJSON(t, ts.URL+"/v1/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second reload: %d %s", resp.StatusCode, body["error"])
	}
	if got := srv.Models().Pred.Cfg.BudgetN; got != 123 {
		t.Fatalf("reload reverted BudgetN to %d", got)
	}
	if got := srv.Models().Pred.Cfg.Workers; got != 3 {
		t.Fatalf("reload reverted Workers to %d", got)
	}

	// Without model paths, reload is an error and the old generation stays.
	srv2 := newTestServer(t, Config{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	gen := srv2.Models()
	resp, body = postJSON(t, ts2.URL+"/v1/reload", nil)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pathless reload succeeded")
	}
	if len(body["error"]) == 0 {
		t.Fatal("pathless reload returned no error message")
	}
	if srv2.Models() != gen {
		t.Fatal("failed reload swapped models")
	}
}
