package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nevermind/internal/data"
	"nevermind/internal/fleet"
	"nevermind/internal/serve"
)

func ingestBodyFor(t *testing.T, lo, hi int) []byte {
	t.Helper()
	ds, _, _ := fixture(t)
	tests, tickets := recordsFor(ds, lo, hi)
	b, err := json.Marshal(serve.IngestRequest{Tests: tests, Tickets: tickets})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGatewayOneShardByteIdentity pins the fleet's core contract: a gateway
// over a single shard answers every data-plane request — success paths,
// every error shape, empty-store ordering, mux 404/405s — with exactly the
// bytes a bare nevermindd produces.
func TestGatewayOneShardByteIdentity(t *testing.T) {
	tf := newTestFleet(t, 1, nil, serve.RetryConfig{MaxAttempts: 2})

	// Empty-store ordering: these 503s/400s fire before any data exists.
	tf.both(t, http.MethodPost, "/v1/score", []byte(`{"examples":[{"line":0,"week":40}]}`))
	tf.both(t, http.MethodGet, "/v1/rank", nil)
	tf.both(t, http.MethodGet, "/v1/rank?week=40", nil)
	tf.both(t, http.MethodPost, "/v1/locate", []byte(`{"line":0,"week":40}`))

	// Malformed and invalid ingests, rejected identically with no state change.
	tf.both(t, http.MethodPost, "/v1/ingest", []byte(`{`))
	tf.both(t, http.MethodPost, "/v1/ingest", []byte(`{"tests":[],"bogus":1}`))
	tf.both(t, http.MethodPost, "/v1/ingest", []byte(`{"tests":[{"line":0,"week":999}]}`))
	tf.both(t, http.MethodPost, "/v1/ingest", []byte(`{"tickets":[{"id":1,"line":-3,"day":10,"category":0}]}`))
	// Valid tests with a bad ticket: both sides reject the whole body, so
	// the rank after it still finds both stores empty.
	tf.both(t, http.MethodPost, "/v1/ingest",
		[]byte(`{"tests":[{"line":0,"week":40}],"tickets":[{"id":1,"line":0,"day":-1,"category":0}]}`))
	tf.both(t, http.MethodGet, "/v1/rank?week=40", nil)

	// A real ingest, applied to both sides.
	body := ingestBodyFor(t, 39, 41)
	tf.both(t, http.MethodPost, "/v1/ingest", body)

	// Scoring: fast path, error ordering, strict-decoder failures.
	tf.both(t, http.MethodPost, "/v1/score",
		[]byte(`{"examples":[{"line":0,"week":41},{"line":5,"week":41},{"line":9,"week":40}]}`))
	tf.both(t, http.MethodPost, "/v1/score",
		[]byte(`{"examples":[{"line":3,"week":40},{"line":3,"week":41}]}`))
	tf.both(t, http.MethodPost, "/v1/score", []byte(`{"examples":[]}`))
	tf.both(t, http.MethodPost, "/v1/score", []byte(`{"examples":[{"line":0,"week":77}]}`))
	tf.both(t, http.MethodPost, "/v1/score", []byte(`{"examples":[{"line":999999,"week":41}]}`))
	tf.both(t, http.MethodPost, "/v1/score", []byte(`{"examples":[{"line":0,"week":41}]}garbage`))
	tf.both(t, http.MethodPost, "/v1/score", []byte(`not json`))

	// Ranking: defaults, explicit params, parameter errors.
	tf.both(t, http.MethodGet, "/v1/rank", nil)
	tf.both(t, http.MethodGet, "/v1/rank?week=41&n=25", nil)
	tf.both(t, http.MethodGet, "/v1/rank?week=40", nil)
	tf.both(t, http.MethodGet, "/v1/rank?week=banana", nil)
	tf.both(t, http.MethodGet, "/v1/rank?n=0", nil)

	// Locate: relay path and error shapes.
	tf.both(t, http.MethodPost, "/v1/locate", []byte(`{"line":7,"week":41,"model":"combined"}`))
	tf.both(t, http.MethodPost, "/v1/locate", []byte(`{"line":7,"week":41,"model":"wrong"}`))
	tf.both(t, http.MethodPost, "/v1/locate", []byte(`{"line":999999,"week":41}`))
	tf.both(t, http.MethodPost, "/v1/locate", []byte(`{"line":1,"week":-2}`))

	// Reload without model paths fails the same way on both.
	tf.both(t, http.MethodPost, "/v1/reload", nil)

	// Mux-level 404/405 bytes.
	tf.both(t, http.MethodGet, "/v1/nope", nil)
	tf.both(t, http.MethodGet, "/v1/ingest", nil)
	tf.both(t, http.MethodPost, "/v1/rank", nil)
	tf.both(t, http.MethodGet, "/", nil)
}

// TestGatewayOversizeIngestErrors pins which error an ingest body past
// MaxBodyBytes gets, on a daemon and through a 1-shard gateway: a body whose
// first MaxBodyBytes bytes already hold a whole JSON value answers
// "trailing data after JSON body", one cut off mid-value answers "http:
// request body too large". Both handlers read the whole body before they
// decode it, and must still answer what decoding the stream used to.
func TestGatewayOversizeIngestErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 128 MB bodies")
	}
	tf := newTestFleet(t, 1, nil, serve.RetryConfig{MaxAttempts: 2})
	for _, tc := range []struct{ prefix, want string }{
		{`{"tests":[]}`, "{\"error\":\"trailing data after JSON body\"}\n"},
		{`{"tests":[`, "{\"error\":\"http: request body too large\"}\n"},
	} {
		for name, h := range map[string]http.Handler{"daemon": tf.single.Handler(), "gateway": tf.gw.Handler()} {
			body := io.MultiReader(strings.NewReader(tc.prefix), &spaces{n: serve.MaxBodyBytes})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", body))
			if rec.Code != http.StatusBadRequest || rec.Body.String() != tc.want {
				t.Errorf("%s, %q + %d spaces: %d %q, want 400 %q",
					name, tc.prefix, serve.MaxBodyBytes, rec.Code, rec.Body, tc.want)
			}
		}
	}
}

// spaces reads as n ASCII spaces.
type spaces struct{ n int }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), s.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.n -= k
	return k, nil
}

// TestGatewayIngestFallbackSplit: a body the fast grammar declines (here a
// case-folded key, which encoding/json accepts) is split by re-marshalling
// the decoded records instead of copying their bytes, and a 3-shard fleet
// fed it still answers exactly as one daemon fed the same body.
func TestGatewayIngestFallbackSplit(t *testing.T) {
	tf := newTestFleet(t, 3, nil, serve.RetryConfig{MaxAttempts: 2})
	body := bytes.Replace(ingestBodyFor(t, 33, 41), []byte(`"line"`), []byte(`"Line"`), 1)
	if ib, err := serve.ParseIngest(body); err != nil || ib.Spanned() {
		t.Fatalf("want a body only the strict decoder takes (err %v)", err)
	}
	tf.bothModuloVersion(t, http.MethodPost, "/v1/ingest", body)
	tf.both(t, http.MethodGet, "/v1/rank?week=41&n=40", nil)
	tf.bothModuloVersion(t, http.MethodPost, "/v1/score",
		[]byte(`{"examples":[{"line":0,"week":41},{"line":1,"week":41},{"line":2,"week":41},{"line":7,"week":40}]}`))
}

// TestGatewayShardedEqualsSingle pins the scale-out contract: a 3-shard
// fleet — each daemon holding only its ring slice — answers scoring,
// ranking and locating byte-identically to one daemon holding everything.
// Nine weeks of history are ingested so every line has a present record
// inside the imputation window: a line dark across the whole stored window
// would be scored from the population-mean fallback vector, which is a
// shard-local statistic — the one documented place sharding can diverge.
func TestGatewayShardedEqualsSingle(t *testing.T) {
	tf := newTestFleet(t, 3, nil, serve.RetryConfig{MaxAttempts: 2})
	body := ingestBodyFor(t, 33, 41)
	tf.bothModuloVersion(t, http.MethodPost, "/v1/ingest", body)

	// Shards hold disjoint slices that cover everything exactly once.
	ring := tf.gw.Ring()
	total := 0
	for _, srv := range tf.shards {
		total += srv.Store().NumLines()
	}
	ds, _, _ := fixture(t)
	if total != ds.NumLines {
		t.Fatalf("shards hold %d lines, dataset has %d", total, ds.NumLines)
	}
	// Behind the gateway nothing is filtered — sub-batches arrive already
	// partitioned. The daemon-side ownership filter is what protects a shard
	// fed the raw full feed (the -fleet.id deployment without a partitioning
	// gateway upstream): replay the whole batch straight into shard 0 and it
	// must drop every foreign record and hold exactly the same lines.
	direct, err := serve.New(serve.Config{Predictor: tf.single.Models().Pred})
	if err != nil {
		t.Fatal(err)
	}
	owns, err := ring.Owns(tf.names[0])
	if err != nil {
		t.Fatal(err)
	}
	direct.Store().SetOwner(owns)
	if r := do(t, direct.Handler(), http.MethodPost, "/v1/ingest", body); r.status != http.StatusOK {
		t.Fatalf("direct full-feed ingest: %d %s", r.status, truncate(r.body))
	}
	if direct.Store().FilteredRecords() == 0 {
		t.Fatal("full-feed ingest into an owning shard filtered nothing")
	}
	if got, want := direct.Store().NumLines(), tf.shards[0].Store().NumLines(); got != want {
		t.Fatalf("full-feed shard holds %d lines, partitioned shard holds %d", got, want)
	}

	// Scoring routes by ring ownership and splices in request order.
	var exs []string
	for l := 0; l < 60; l += 3 {
		exs = append(exs, fmt.Sprintf(`{"line":%d,"week":41}`, l))
	}
	tf.bothModuloVersion(t, http.MethodPost, "/v1/score", []byte(`{"examples":[`+strings.Join(exs, ",")+`]}`))

	// Rank: the streamed k-way merge must reproduce the single ranking
	// exactly — same ids, same order, same float bits.
	tf.both(t, http.MethodGet, "/v1/rank?week=41&n=40", nil)
	tf.both(t, http.MethodGet, "/v1/rank", nil)
	tf.both(t, http.MethodGet, "/v1/rank?week=40&n=7", nil)

	// Locate relays from whichever shard owns the line.
	for _, l := range []data.LineID{2, 11, 29} {
		o := ring.Owner(l)
		if o < 0 || o >= 3 {
			t.Fatalf("line %d owner %d out of range", l, o)
		}
		tf.both(t, http.MethodPost, "/v1/locate", []byte(fmt.Sprintf(`{"line":%d,"week":41}`, l)))
	}

	// The gateway's own healthz reports the aggregate fleet view.
	h := do(t, tf.gw.Handler(), http.MethodGet, "/healthz", nil)
	var hv struct {
		Status    string `json:"status"`
		ShardsUp  int    `json:"shards_up"`
		GridLines int    `json:"grid_lines"`
		Lines     int    `json:"lines"`
	}
	if err := json.Unmarshal(h.body, &hv); err != nil {
		t.Fatal(err)
	}
	if hv.Status != "ok" || hv.ShardsUp != 3 || hv.Lines != ds.NumLines || hv.GridLines != ds.NumLines {
		t.Fatalf("fleet healthz: %+v", hv)
	}
}

// TestGatewayDegradedShard pins the degradation contract: with one shard
// killed the gateway keeps serving /v1/rank as an explicitly partial answer,
// refuses writes with the shard's failure relayed, reports the outage on
// /metrics — and converges bit-identically once the shard returns.
func TestGatewayDegradedShard(t *testing.T) {
	var mu sync.Mutex
	killed := map[string]bool{}
	hooks := &fleet.FaultHooks{
		ShardRequest: func(shard, route string) error {
			mu.Lock()
			defer mu.Unlock()
			if killed[shard] {
				return fmt.Errorf("injected kill: %s %s", shard, route)
			}
			return nil
		},
	}
	tf := newTestFleet(t, 3, hooks, serve.RetryConfig{MaxAttempts: 2})
	body := ingestBodyFor(t, 33, 41)
	tf.bothModuloVersion(t, http.MethodPost, "/v1/ingest", body)
	tf.both(t, http.MethodGet, "/v1/rank?week=41&n=30", nil)

	mu.Lock()
	killed["shard-1"] = true
	mu.Unlock()

	// Partial rank: 200, flagged, every prediction from a surviving shard.
	r := do(t, tf.gw.Handler(), http.MethodGet, "/v1/rank?week=41&n=30", nil)
	if r.status != http.StatusOK {
		t.Fatalf("degraded rank: %d %s", r.status, truncate(r.body))
	}
	if r.header.Get("X-Fleet-Partial") != "true" {
		t.Fatal("degraded rank not flagged partial")
	}
	var rv struct {
		N           int `json:"n"`
		Predictions []struct {
			Line data.LineID `json:"line"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(r.body, &rv); err != nil {
		t.Fatal(err)
	}
	if rv.N == 0 || len(rv.Predictions) != rv.N {
		t.Fatalf("degraded rank shape: n=%d len=%d", rv.N, len(rv.Predictions))
	}
	for _, p := range rv.Predictions {
		if got := tf.gw.Ring().OwnerName(p.Line); got == "shard-1" {
			t.Fatalf("partial rank contains line %d owned by the dead shard", p.Line)
		}
	}

	// The outage is visible on the gateway's metrics surface.
	m := do(t, tf.gw.Handler(), http.MethodGet, "/metrics", nil)
	for _, want := range []string{
		"fleet_degraded_shards 1",
		`fleet_shard_up{shard="shard-1"} 0`,
		`fleet_shard_up{shard="shard-0"} 1`,
		"fleet_partial_ranks_total 1",
	} {
		if !bytes.Contains(m.body, []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, m.body)
		}
	}

	// Writes fail loudly: the dead shard's synthesized failure is relayed.
	w := do(t, tf.gw.Handler(), http.MethodPost, "/v1/ingest", body)
	if w.status != http.StatusServiceUnavailable ||
		!bytes.Contains(w.body, []byte(`"error":"shard shard-1 unavailable`)) {
		t.Fatalf("ingest with dead shard: %d %s", w.status, truncate(w.body))
	}

	mu.Lock()
	killed["shard-1"] = false
	mu.Unlock()

	// Recovery: re-deliver the week (ingest is idempotent), and the fleet
	// answers bit-identically to the never-faulted single daemon again.
	if g := do(t, tf.gw.Handler(), http.MethodPost, "/v1/ingest", body); g.status != http.StatusOK {
		t.Fatalf("recovery ingest: %d %s", g.status, truncate(g.body))
	}
	g := do(t, tf.gw.Handler(), http.MethodGet, "/v1/rank?week=41&n=30", nil)
	s := do(t, tf.single.Handler(), http.MethodGet, "/v1/rank?week=41&n=30", nil)
	if g.status != http.StatusOK || !bytes.Equal(g.body, s.body) {
		t.Fatalf("post-recovery rank diverged:\n  gateway: %d %q\n  single:  %d %q",
			g.status, truncate(g.body), s.status, truncate(s.body))
	}
	if g.header.Get("X-Fleet-Partial") != "" {
		t.Fatal("recovered rank still flagged partial")
	}
	mm := do(t, tf.gw.Handler(), http.MethodGet, "/metrics", nil)
	if !bytes.Contains(mm.body, []byte("fleet_degraded_shards 0")) {
		t.Fatal("degraded gauge did not return to 0 after recovery")
	}
}
