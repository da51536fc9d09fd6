package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/obs"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

// soakConfig parameterises one soak run; the long-mode test reuses the same
// runner over more weeks and several fault seeds.
type soakConfig struct {
	chaos      *Config // nil = clean run
	loWeek     int
	hiWeek     int
	hammers    int // concurrent API/snapshot readers during the run
	retrySeed  uint64
	maxAttempt int
}

// soakResult is everything a run serves, captured for replay comparison.
type soakResult struct {
	reports  []serve.WeekReport
	rankBody string // final /v1/rank JSON, bit-for-bit
	stats    Stats  // injected faults (zero for clean runs)

	// Observability readout, captured after the run quiesced (pipeline done,
	// hammers joined): the tracer's flight recorder, the registry-backed
	// retry counters, and the rendered /metrics text.
	trace        obs.TraceSnapshot
	retriesTotal int64
	retriesByOp  map[string]int64
	metricsText  string
}

// runSoak drives the full serving stack — store, snapshot cache, HTTP API,
// pipeline, ATDS queue, hot reload — through the configured weeks, with the
// chaos layer armed when cfg.chaos is set. Hammer goroutines exercise the
// read path the whole time and fail the test on any torn snapshot or
// unhealthy /healthz.
func runSoak(t *testing.T, cfg soakConfig) soakResult {
	t.Helper()
	ds, pred0 := fixture(t)

	// Each run loads its own predictor from disk so runs never share encode
	// caches, and so the reload path (probed under injected faults) has a
	// file to re-read.
	dir := t.TempDir()
	predPath := filepath.Join(dir, "pred.gob.gz")
	if err := pred0.Save(predPath); err != nil {
		t.Fatal(err)
	}
	pred, err := core.LoadPredictor(predPath)
	if err != nil {
		t.Fatal(err)
	}

	var inj *Injector
	var faults *serve.FaultHooks
	if cfg.chaos != nil {
		inj = New(*cfg.chaos)
		faults = inj.Hooks()
	}
	srv, err := serve.New(serve.Config{
		Predictor:     pred,
		PredictorPath: predPath,
		Shards:        4,
		MaxInflight:   64,
		Faults:        faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	src, err := sim.NewSource(ds, cfg.loWeek, cfg.hiWeek)
	if err != nil {
		t.Fatal(err)
	}
	var feed serve.Source = serve.SimFeed(src)
	if inj != nil {
		feed = inj.WrapSource(feed)
	}

	var res soakResult
	pl, err := serve.NewPipeline(srv, serve.PipelineConfig{
		Source: feed,
		Retry: serve.RetryConfig{
			MaxAttempts: cfg.maxAttempt,
			Seed:        cfg.retrySeed,
		},
		Sleep:  func(time.Duration) {},
		OnWeek: func(r serve.WeekReport) { res.reports = append(res.reports, r) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Hammers: concurrent readers that must never see a torn snapshot, an
	// unhealthy health check, or a malformed rank response — fault storms
	// included. 503 is a legal degraded answer for the data plane (empty
	// store, shed, stale), never for /healthz.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for h := 0; h < cfg.hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					resp, err := client.Get(ts.URL + "/healthz")
					if err != nil {
						t.Errorf("hammer %d: healthz: %v", h, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("hammer %d: healthz answered %d during faults", h, resp.StatusCode)
						return
					}
				case 1:
					resp, err := client.Get(ts.URL + "/v1/rank?n=5")
					if err != nil {
						t.Errorf("hammer %d: rank: %v", h, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK, http.StatusServiceUnavailable:
						var v map[string]json.RawMessage
						if err := json.Unmarshal(body, &v); err != nil {
							t.Errorf("hammer %d: rank returned unparseable body %q", h, body)
							return
						}
					default:
						t.Errorf("hammer %d: rank answered %d: %s", h, resp.StatusCode, body)
						return
					}
				case 2:
					sn := srv.Store().Snapshot()
					if sn == nil {
						continue
					}
					if err := sn.DS.Grid.Validate(sn.DS.NumLines); err != nil {
						t.Errorf("hammer %d: torn snapshot: %v", h, err)
						return
					}
				}
			}
		}(h)
	}
	// A reload prober: hot reloads race the pipeline and the hammers, with
	// the probe failing at the injected rate. Either outcome is legal; a
	// failure must leave the generation serving (the hammers verify that by
	// construction — scoring never breaks).
	if cfg.chaos != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Post(ts.URL+"/v1/reload", "application/json", nil)
				if err != nil {
					t.Errorf("reload prober: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
					t.Errorf("reload prober: unexpected status %d", resp.StatusCode)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	for {
		ok, err := pl.Step()
		if err != nil {
			t.Fatalf("pipeline died mid-soak: %v", err)
		}
		if !ok {
			break
		}
	}
	close(stop)
	wg.Wait()

	// The delta/full equivalence property, checked on the chaotic end state:
	// whatever mix of delta applies and full rebuilds (including failed ones)
	// got the store here, a from-scratch rebuild must reproduce the exact
	// same snapshot. Builds can still fail under injected faults, so loop
	// until a fresh one lands.
	incSn := freshSnapshot(t, "pre-reset", srv.Store())
	srv.Store().ResetSnapshotCache()
	fullSn := freshSnapshot(t, "post-reset", srv.Store())
	assertSnapshotsEquivalent(t, incSn, fullSn)

	// Final ranking over the last week, bit-for-bit.
	resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/rank?week=%d&n=25", cfg.hiWeek))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final rank: %d %s", resp.StatusCode, body)
	}
	res.rankBody = string(body)
	if inj != nil {
		res.stats = inj.Stats()
	}

	res.trace = srv.Tracer().Snapshot()
	// The help strings are ignored on lookup: the server registered these
	// families at boot, get-or-create just hands the live values back.
	res.retriesTotal = srv.Registry().Counter("nevermind_pipeline_retries_total", "").Value()
	res.retriesByOp = srv.Registry().CounterVec("nevermind_pipeline_retries_by_op_total", "", "op").Values()
	var mb strings.Builder
	if err := srv.Registry().WritePrometheus(&mb); err != nil {
		t.Fatal(err)
	}
	res.metricsText = mb.String()
	return res
}

// TestChaosSoak is the tier-1 soak: the full serving stack rides through
// every fault mode at >= 10% rates for a stretch of weeks, and the run must
// converge to the exact state of a clean replay — same weeks dispatched into
// ATDS exactly once, same per-week outcome stats, bit-identical final
// ranking — while concurrent readers never observe a torn snapshot or a
// failed health check.
func TestChaosSoak(t *testing.T) {
	lo, hi := 40, 47
	clean := runSoak(t, soakConfig{
		loWeek: lo, hiWeek: hi, hammers: 0, retrySeed: 17, maxAttempt: 20,
	})
	if len(clean.reports) != hi-lo+1 {
		t.Fatalf("clean run covered %d weeks, want %d", len(clean.reports), hi-lo+1)
	}

	chaotic := runSoak(t, soakConfig{
		chaos: &Config{
			Seed:        25,
			SourceError: 0.15, PartialBatch: 0.15, MalformedBatch: 0.15,
			IngestError: 0.20, SnapshotError: 0.25, ReloadError: 0.50,
			SlowShard: 0.30, ShardDelay: time.Millisecond,
			SlowRequest: 0.30, RequestDelay: time.Millisecond,
			Sleep: func(time.Duration) {},
		},
		loWeek: lo, hiWeek: hi, hammers: 3, retrySeed: 17, maxAttempt: 20,
	})

	// Exactly-once, in-order ATDS dispatch: every week appears once.
	if len(chaotic.reports) != hi-lo+1 {
		t.Fatalf("chaos run covered %d weeks, want %d", len(chaotic.reports), hi-lo+1)
	}
	for i, r := range chaotic.reports {
		if r.Week != lo+i {
			t.Fatalf("chaos run dispatched weeks out of order or twice: %+v", chaotic.reports)
		}
	}

	// Once faults clear each week, the served state is the clean state: the
	// ingested volumes, submissions and ATDS outcome stats match exactly.
	retries := 0
	for i := range chaotic.reports {
		c, f := clean.reports[i], chaotic.reports[i]
		retries += f.Retries
		if c.Week != f.Week || c.IngestedTests != f.IngestedTests || c.IngestedTickets != f.IngestedTickets ||
			c.Submitted != f.Submitted || c.Pending != f.Pending || c.Stats != f.Stats {
			t.Fatalf("week %d diverged from clean replay:\nclean %+v\nchaos %+v", c.Week, c, f)
		}
	}

	// The final ranking is bit-for-bit the clean ranking.
	if chaotic.rankBody != clean.rankBody {
		t.Fatalf("final ranking diverged from clean replay:\nclean %s\nchaos %s", clean.rankBody, chaotic.rankBody)
	}

	// The adversary actually showed up: every armed fault family fired, and
	// the pipeline had to retry through faults to get here.
	st := chaotic.stats
	if st.SourceErrors == 0 || st.PartialBatches == 0 || st.MalformedBatches == 0 {
		t.Fatalf("source fault modes missing from the run: %+v", st)
	}
	if st.IngestFaults == 0 || st.SnapshotFaults == 0 {
		t.Fatalf("store fault modes missing from the run: %+v", st)
	}
	if retries == 0 {
		t.Fatal("pipeline reported zero retries through a fault storm")
	}

	// Observability invariants after convergence. Both runs: no stage span
	// leaked (every span started was ended), the registry's retry counter
	// agrees exactly with the per-week reports, the by-op breakdown sums to
	// the total, and the degraded gauge is back at 0 (the last snapshot
	// served was fresh).
	for _, run := range []struct {
		name string
		res  soakResult
	}{{"clean", clean}, {"chaos", chaotic}} {
		tr := run.res.trace
		if tr.Started == 0 || tr.Started != tr.Finished || tr.Active != 0 {
			t.Fatalf("%s run leaked stage spans: started=%d finished=%d active=%d",
				run.name, tr.Started, tr.Finished, tr.Active)
		}
		reported := 0
		for _, r := range run.res.reports {
			reported += r.Retries
		}
		if run.res.retriesTotal != int64(reported) {
			t.Fatalf("%s run: retry metric %d != %d retries in week reports",
				run.name, run.res.retriesTotal, reported)
		}
		var byOp int64
		for _, v := range run.res.retriesByOp {
			byOp += v
		}
		if byOp != run.res.retriesTotal {
			t.Fatalf("%s run: per-op retries %v sum to %d, total counter says %d",
				run.name, run.res.retriesByOp, byOp, run.res.retriesTotal)
		}
		if !strings.Contains(run.res.metricsText, "\nnevermind_degraded 0\n") {
			t.Fatalf("%s run: degraded gauge did not return to 0 after convergence", run.name)
		}
	}

	// Chaos run only: retries reconcile against the faults actually injected.
	// Source, batch and ingest faults each force exactly one pipeline retry.
	// A snapshot fault forces at most one: the hammers also trigger rebuilds,
	// so some injected build failures burn on reads the pipeline never sees.
	lower := st.SourceErrors + st.PartialBatches + st.MalformedBatches + st.IngestFaults
	upper := lower + st.SnapshotFaults
	if rt := chaotic.retriesTotal; rt < lower || rt > upper {
		t.Fatalf("retry accounting: %d retries recorded, want within [%d, %d] for faults %+v",
			rt, lower, upper, st)
	}
	// Every stale-snapshot attempt left one degraded span in the recorder,
	// and each such attempt is one snapshot retry — the ring is big enough
	// that nothing was evicted, so the counts must agree exactly.
	if chaotic.trace.Dropped != 0 {
		t.Fatalf("soak overflowed the trace ring (%d dropped); grow the capacity", chaotic.trace.Dropped)
	}
	var degraded int64
	for _, sp := range chaotic.trace.Spans {
		if sp.Degraded {
			degraded++
		}
	}
	if degraded != chaotic.retriesByOp["snapshot"] {
		t.Fatalf("degraded spans (%d) != snapshot retries (%d)", degraded, chaotic.retriesByOp["snapshot"])
	}

	t.Logf("soak: %d injected faults (%+v), %d pipeline retries (%v), %d spans (%d degraded)",
		st.Total(), st, retries, chaotic.retriesByOp, chaotic.trace.Finished, degraded)
}

// assertSnapshotsEquivalent deep-compares two snapshots through the public
// surface the serving path consumes: grid cells, presence, per-week line
// lists, tickets and line attributes must match exactly — the delta-applied
// and from-scratch representations of one store state are interchangeable.
func assertSnapshotsEquivalent(t *testing.T, a, b *serve.Snapshot) {
	t.Helper()
	if a.Version != b.Version {
		t.Fatalf("snapshot identity diverged: version %d/%d", a.Version, b.Version)
	}
	if a.DS.NumLines != b.DS.NumLines || a.DS.NumDSLAMs != b.DS.NumDSLAMs {
		t.Fatalf("snapshot shape diverged: lines %d/%d dslams %d/%d",
			a.DS.NumLines, b.DS.NumLines, a.DS.NumDSLAMs, b.DS.NumDSLAMs)
	}
	if !reflect.DeepEqual(a.Lines, b.Lines) {
		t.Fatal("line sets diverged between delta-applied and full snapshots")
	}
	if !reflect.DeepEqual(a.DS.Tickets, b.DS.Tickets) {
		t.Fatalf("tickets diverged: %d vs %d", len(a.DS.Tickets), len(b.DS.Tickets))
	}
	if !reflect.DeepEqual(a.DS.ProfileOf, b.DS.ProfileOf) ||
		!reflect.DeepEqual(a.DS.DSLAMOf, b.DS.DSLAMOf) ||
		!reflect.DeepEqual(a.DS.UsageOf, b.DS.UsageOf) {
		t.Fatal("line attributes diverged between delta-applied and full snapshots")
	}
	for w := 0; w < data.Weeks; w++ {
		if !reflect.DeepEqual(a.LinesAt(w), b.LinesAt(w)) {
			t.Fatalf("week %d: present-line lists diverged", w)
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
