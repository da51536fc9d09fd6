package drift

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/features"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

// The drift fixture: a small simulated year plus a champion trained on
// clean mid-year weeks — frozen before the scenario packs disturb the
// plant, so the drift the monitors see is real model/world divergence. The
// champion is saved once and re-loaded per run so runs never share encode
// caches.
var (
	fixtureDS   *data.Dataset
	fixturePred string // saved champion path
)

func driftFixture(t *testing.T) (*data.Dataset, string) {
	t.Helper()
	if fixtureDS == nil {
		res, err := sim.Run(sim.DefaultConfig(700, 11))
		if err != nil {
			t.Fatal(err)
		}
		fixtureDS = res.Dataset

		cfg := core.DefaultPredictorConfig(fixtureDS.NumLines, 11)
		cfg.Rounds = 12
		cfg.MaxSelectExamples = 6000
		pred, err := core.TrainPredictor(fixtureDS, features.WeekRange(22, 29), cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "drift-fixture-")
		if err != nil {
			t.Fatal(err)
		}
		fixturePred = filepath.Join(dir, "champion.gob.gz")
		if err := pred.Save(fixturePred); err != nil {
			t.Fatal(err)
		}
	}
	return fixtureDS, fixturePred
}

// soakThresholds is the operating point every soak runs at; pinned here so
// the expected trip/retrain/promotion timeline is stable across tests. The
// PSI ceiling sits well above the fixture's clean-week jitter (~0.03) and
// well below the firmware scenario's shift (~0.35). At 700 lines the
// weekly AP@N is far too noisy for a relative floor (clean weeks range
// 0.0065–0.45), so the floor is dropped to where it cannot trip — the
// distribution monitor is the crisp first responder at this fixture
// scale, and the AP trip path is exercised by unit tests instead.
func soakThresholds() Thresholds {
	th := DefaultThresholds()
	th.PSICeil = 0.2
	th.APFloor = 0.01
	return th
}

// soakCfg parameterises one drift soak run.
type soakCfg struct {
	scenario   *sim.Scenario
	th         Thresholds
	trainWeeks int
	hooks      *FaultHooks
	lo, hi     int
	// withControl also steps a controller-free twin stack in lockstep and
	// captures its per-tick /v1/score bytes, for the shadowing
	// byte-identity assertion.
	withControl bool
	// wrapFeed, when set, wraps the assembled feed (after any scenario) —
	// the permutation property tests use it to shuffle within-batch record
	// order.
	wrapFeed func(serve.Source) serve.Source
	logf     func(string, ...any)
}

// soakRes captures everything a run served, for replay comparison.
type soakRes struct {
	status        Status
	history       []WeekStats
	scores        []string // per-tick /v1/score body, fixed example set
	controlScores []string // same, from the controller-free twin
	modelIDs      []string // serving generation after each tick
	promoteTick   int      // index of the first tick served by a non-boot model; -1 if none
	driftJSON     string   // final /v1/drift body
	healthz       string   // final /healthz body (uptime stripped)
	traceJSON     string   // final /v1/trace body — NOT replay-compared (wall-clock timestamps)
	reloads       int64
}

// scoreProbe is the fixed example set POSTed to /v1/score every tick.
func scoreProbe(week int) string {
	var sb strings.Builder
	sb.WriteString(`{"examples":[`)
	for l := 0; l < 10; l++ {
		if l > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"line":%d,"week":%d}`, l*7, week)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

func postJSON(t *testing.T, h http.Handler, path, body string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func getBody(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// newFeed assembles the configured week stream: simulator source, optional
// scenario pack, optional wrapper.
func newFeed(t *testing.T, ds *data.Dataset, cfg soakCfg) serve.Source {
	t.Helper()
	src, err := sim.NewSource(ds, cfg.lo, cfg.hi)
	if err != nil {
		t.Fatal(err)
	}
	var feed serve.Source = serve.SimFeed(src)
	if cfg.scenario != nil {
		ss, err := sim.NewScenarioSource(src, *cfg.scenario)
		if err != nil {
			t.Fatal(err)
		}
		feed = ss
	}
	if cfg.wrapFeed != nil {
		feed = cfg.wrapFeed(feed)
	}
	return feed
}

// runDriftSoak drives the full stack — store, snapshot cache, HTTP API,
// pipeline, drift controller — through the configured weeks, probing
// /v1/score after every tick.
func runDriftSoak(t *testing.T, cfg soakCfg) soakRes {
	t.Helper()
	ds, predPath := driftFixture(t)

	newStack := func(withCtrl bool) (*serve.Server, *serve.Pipeline, *Controller) {
		pred, err := core.LoadPredictor(predPath)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(serve.Config{Predictor: pred, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		feed := newFeed(t, ds, cfg)
		var ctrl *Controller
		if withCtrl {
			ctrl, err = New(Config{
				Server:     srv,
				Thresholds: cfg.th,
				TrainWeeks: cfg.trainWeeks,
				Hooks:      cfg.hooks,
				Logf:       cfg.logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctrl.BindMetrics(srv.Registry())
			srv.MountDrift(ctrl.Handler())
			srv.SetDriftStatus(ctrl.ServeStatus)
		}
		pcfg := serve.PipelineConfig{
			Source: feed,
			Retry:  serve.RetryConfig{MaxAttempts: 8, Seed: 5},
			Sleep:  func(time.Duration) {},
		}
		if ctrl != nil {
			pcfg.OnSnapshot = ctrl.ObserveWeek
		}
		pl, err := serve.NewPipeline(srv, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv, pl, ctrl
	}

	srv, pl, ctrl := newStack(true)
	var ctlSrv *serve.Server
	var ctlPl *serve.Pipeline
	if cfg.withControl {
		ctlSrv, ctlPl, _ = newStack(false)
	}

	res := soakRes{promoteTick: -1}
	for {
		ok, err := pl.Step(t.Context())
		if err != nil {
			t.Fatalf("pipeline died mid-soak: %v", err)
		}
		if !ok {
			break
		}
		week := srv.Store().LatestWeek()
		code, body := postJSON(t, srv.Handler(), "/v1/score", scoreProbe(week))
		if code != http.StatusOK {
			t.Fatalf("week %d score: %d %s", week, code, body)
		}
		res.scores = append(res.scores, body)
		id := srv.Models().ID
		res.modelIDs = append(res.modelIDs, id)
		if id != "boot" && res.promoteTick < 0 {
			res.promoteTick = len(res.modelIDs) - 1
		}
		if cfg.withControl {
			cok, cerr := ctlPl.Step(t.Context())
			if cerr != nil || !cok {
				t.Fatalf("control pipeline desynced at week %d: ok=%v err=%v", week, cok, cerr)
			}
			ccode, cbody := postJSON(t, ctlSrv.Handler(), "/v1/score", scoreProbe(week))
			if ccode != http.StatusOK {
				t.Fatalf("week %d control score: %d %s", week, ccode, cbody)
			}
			res.controlScores = append(res.controlScores, cbody)
		}
	}
	if cfg.withControl {
		if ok, _ := ctlPl.Step(t.Context()); ok {
			t.Fatal("control pipeline outlived the main run")
		}
	}

	res.status = ctrl.Status()
	res.history = ctrl.History()
	var code int
	if code, res.driftJSON = getBody(t, srv.Handler(), "/v1/drift"); code != http.StatusOK {
		t.Fatalf("/v1/drift: %d %s", code, res.driftJSON)
	}
	if code, res.healthz = getBody(t, srv.Handler(), "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	// Canonicalise /healthz: drop the wall-clock uptime so replays compare
	// bit-identically (json.Marshal of a map sorts keys).
	var hz map[string]any
	if err := json.Unmarshal([]byte(res.healthz), &hz); err != nil {
		t.Fatalf("/healthz body: %v", err)
	}
	delete(hz, "uptime_seconds")
	canon, err := json.Marshal(hz)
	if err != nil {
		t.Fatal(err)
	}
	res.healthz = string(canon)
	if code, res.traceJSON = getBody(t, srv.Handler(), "/v1/trace"); code != http.StatusOK {
		t.Fatalf("/v1/trace: %d", code)
	}
	res.reloads = srv.Registry().Counter("nevermind_model_reloads_total", "").Value()
	return res
}
