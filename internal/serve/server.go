package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/faults"
	"nevermind/internal/features"
	"nevermind/internal/obs"
)

// Models bundles the two trained models one atomic pointer swaps together,
// so a ranking never sees a predictor from one generation and a locator
// from another.
type Models struct {
	Pred *core.TicketPredictor
	Loc  *core.TroubleLocator // nil when the daemon runs without a locator
	// ID names the serving generation for operators: "boot" for the pair
	// the daemon started with, a reload fingerprint after a file reload,
	// or the challenger id a drift promotion supplied. Surfaced on
	// /healthz and in the drift loop's logs.
	ID string
}

// Config assembles a Server.
type Config struct {
	// Predictor is required; Locator is optional.
	Predictor *core.TicketPredictor
	Locator   *core.TroubleLocator
	// PredictorPath/LocatorPath, when set, enable hot-reload: SIGHUP or
	// POST /v1/reload re-reads the files and atomically swaps the models.
	PredictorPath string
	LocatorPath   string
	// Shards sizes the line-state store (0 = GOMAXPROCS).
	Shards int
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish after the listener closes (0 = 10s).
	DrainTimeout time.Duration
	// RequestTimeout bounds each API request; a request that exceeds it is
	// answered 503 while the monitoring endpoints stay un-timed. 0 disables.
	RequestTimeout time.Duration
	// MaxInflight load-sheds: when this many API requests are already in
	// flight, new ones are refused with 503 + Retry-After instead of
	// queueing behind a stall. 0 disables. The monitoring plane (/healthz,
	// /metrics, /v1/trace, /debug/pprof/) is exempt — it must answer during
	// overload.
	MaxInflight int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the API mux
	// (the monitoring plane, so profiles remain reachable during overload).
	// Off by default: profiling endpoints expose process internals.
	EnablePprof bool
	// Faults installs fault-injection hooks on the store, the reload probe
	// and the request path; nil in production.
	Faults *FaultHooks
	// ReadOnly refuses /v1/ingest with 403: a replica's store is written
	// only by the replication apply loop, and a stray ingest would fork its
	// version history from the leader's.
	ReadOnly bool
	// ModelID names the boot model generation on /healthz ("boot" when
	// empty).
	ModelID string
	// ReplicaStatus, when set, marks this server as a replication follower:
	// data-plane reads carry an X-Replica-Lag header and /healthz grows the
	// replica_* fields the gateway's staleness gating reads. Leaders and
	// standalone daemons leave it nil and keep their exact wire surface.
	ReplicaStatus func() ReplicaStatus
}

// ReplicaStatus is a follower's replication position, published by the
// replica apply loop (see internal/replica).
type ReplicaStatus struct {
	// Applied is the store version the follower has applied through.
	Applied uint64
	// LeaderVersion is the leader's durable version as of the last stream
	// response; Applied ≤ LeaderVersion and the difference is the lag.
	LeaderVersion uint64
	// Connected reports whether the last leader fetch succeeded.
	Connected bool
}

// Lag returns LeaderVersion − Applied, saturating at 0 (a follower can
// briefly know of no version newer than its own).
func (rs ReplicaStatus) Lag() uint64 {
	if rs.LeaderVersion <= rs.Applied {
		return 0
	}
	return rs.LeaderVersion - rs.Applied
}

// Server is the nevermindd HTTP server: the sharded store, the current
// model pair, and the API mux.
type Server struct {
	// store is swappable: a replication follower re-bootstrapping after a
	// retention gap builds a fresh store offline and swaps it in whole, so
	// readers only ever see a store whose content matches its version.
	store         atomic.Pointer[Store]
	models        atomic.Pointer[Models]
	m             *metrics
	mux           *http.ServeMux
	handler       http.Handler // mux wrapped in admission control + timeouts
	faults        *FaultHooks
	readOnly      bool
	replicaStatus func() ReplicaStatus
	driftStatus   atomic.Pointer[func() DriftStatus]

	reloadMu      sync.Mutex
	predictorPath string
	locatorPath   string
	drainTimeout  time.Duration

	// scoreBarrier, when set by a test, runs at the top of every /v1/score
	// request — the hook the graceful-shutdown test uses to hold a request
	// in flight across a drain.
	scoreBarrier func()
}

// New builds a Server around trained models. Repeated scoring of a snapshot
// is answered from its resident week score tables, so the models run
// without an encode/bin cache: New detaches any cache an offline caller
// trained them with (see features.Cache), because its keys ignore the data
// and would serve one store's encodes for another's.
func New(cfg Config) (*Server, error) {
	if cfg.Predictor == nil {
		return nil, errors.New("serve: a trained predictor is required")
	}
	s := &Server{
		m:             newMetrics(),
		faults:        cfg.Faults,
		readOnly:      cfg.ReadOnly,
		replicaStatus: cfg.ReplicaStatus,
		predictorPath: cfg.PredictorPath,
		locatorPath:   cfg.LocatorPath,
		drainTimeout:  cfg.DrainTimeout,
	}
	if s.drainTimeout <= 0 {
		s.drainTimeout = 10 * time.Second
	}
	s.SwapStore(NewStore(cfg.Shards))
	s.m.bindServer(s)
	cfg.Predictor.SetEncodeCache(nil)
	if cfg.Locator != nil {
		cfg.Locator.SetEncodeCache(nil)
	}
	if cfg.ModelID == "" {
		cfg.ModelID = "boot"
	}
	s.models.Store(&Models{Pred: cfg.Predictor, Loc: cfg.Locator, ID: cfg.ModelID})

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.m.instrument("ingest", s.handleIngest))
	mux.HandleFunc("POST /v1/score", s.m.instrument("score", s.handleScore))
	mux.HandleFunc("GET /v1/rank", s.m.instrument("rank", s.handleRank))
	mux.HandleFunc("POST /v1/locate", s.m.instrument("locate", s.handleLocate))
	mux.HandleFunc("POST /v1/reload", s.m.instrument("reload", s.handleReload))
	mux.HandleFunc("GET /healthz", s.m.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.m.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/trace", s.m.instrument("trace", s.handleTrace))
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	s.handler = s.buildHandler(cfg.RequestTimeout, cfg.MaxInflight)
	return s, nil
}

// buildHandler wraps the mux in the degradation middleware: a max-inflight
// admission gate that sheds load with 503 + Retry-After, then a per-request
// deadline. The monitoring endpoints bypass both — during an overload or a
// stall, /healthz and /metrics are exactly what the operator needs.
func (s *Server) buildHandler(timeout time.Duration, maxInflight int) http.Handler {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := s.faults; h != nil && h.Request != nil {
			h.Request(r.URL.Path)
		}
		s.mux.ServeHTTP(w, r)
		if errors.Is(r.Context().Err(), context.DeadlineExceeded) {
			s.m.timeouts.Add(1)
		}
	})
	var core http.Handler = inner
	if timeout > 0 {
		core = http.TimeoutHandler(inner, timeout, `{"error":"request deadline exceeded"}`)
	}
	var slots chan struct{}
	if maxInflight > 0 {
		slots = make(chan struct{}, maxInflight)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz", r.URL.Path == "/metrics",
			r.URL.Path == "/v1/trace", r.URL.Path == "/v1/drift",
			strings.HasPrefix(r.URL.Path, "/debug/pprof/"),
			strings.HasPrefix(r.URL.Path, "/v1/repl/"):
			s.mux.ServeHTTP(w, r)
			return
		}
		if slots != nil {
			select {
			case slots <- struct{}{}:
				defer func() { <-slots }()
			default:
				s.m.loadShed.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable,
					errors.New("overloaded: max in-flight requests reached; retry after backoff"))
				return
			}
		}
		core.ServeHTTP(w, r)
	})
}

// Store exposes the line-state store (the pipeline ingests through it).
func (s *Server) Store() *Store { return s.store.Load() }

// SwapStore atomically replaces the serving store, wiring the fault hooks
// and metrics the constructor would. Requests racing the swap see either the
// old store or the new one, each internally consistent — the replica
// re-bootstrap path relies on this to never expose a half-restored store.
func (s *Server) SwapStore(st *Store) {
	st.SetFaults(s.faults)
	st.setMetrics(s.m)
	s.store.Store(st)
}

// MountReplication hangs the leader-side replication handler under
// /v1/repl/. The prefix bypasses the admission gate and request deadline
// (see buildHandler): a long-polled WAL stream holds its request open on
// purpose, and shedding or timing out followers would just stall catch-up.
func (s *Server) MountReplication(h http.Handler) {
	s.mux.Handle("/v1/repl/", h)
}

// Models returns the current model generation.
func (s *Server) Models() *Models { return s.models.Load() }

// Registry exposes the server's metrics registry, for tests asserting
// metric invariants and for wiring extra process-level collectors.
func (s *Server) Registry() *obs.Registry { return s.m.reg }

// Tracer exposes the pipeline stage tracer (what /v1/trace serves).
func (s *Server) Tracer() *obs.Tracer { return s.m.tracer }

// ScoreObserver returns a callback that records compiled-scorer batch
// timings into this server's registry — the hook cmd/nevermindd installs
// via ml.SetScoreObserver. It is not installed automatically because the ml
// hook is process-global and a test binary runs many servers.
func (s *Server) ScoreObserver() func(rows int, d time.Duration) {
	return func(rows int, d time.Duration) {
		s.m.scoreRows.Add(int64(rows))
		s.m.scoreDur.Observe(d)
	}
}

// Handler returns the API handler, wrapped in the admission/timeout
// middleware when the Config enabled it.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve runs the HTTP server on ln until ctx is cancelled, then drains
// gracefully: the listener closes immediately (new connections are
// refused), in-flight requests run to completion within DrainTimeout, and
// Serve returns once the last one finishes.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// --- wire types ---------------------------------------------------------------

// ScoreExample is one (line, week) entry of /v1/score's examples array;
// exported so the fleet gateway can partition a request by ring ownership
// using the exact wire type the shard handler parses.
type ScoreExample struct {
	Line data.LineID `json:"line"`
	Week int         `json:"week"`
}

type predictionJSON struct {
	Line        data.LineID `json:"line"`
	Week        int         `json:"week"`
	Score       float64     `json:"score"`
	Probability float64     `json:"probability"`
}

func toWire(ps []core.Prediction) []predictionJSON {
	out := make([]predictionJSON, len(ps))
	for i, p := range ps {
		out[i] = predictionJSON{Line: p.Line, Week: p.Week, Score: p.Score, Probability: p.Probability}
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// MaxBodyBytes bounds request bodies; a full weekly ingest for a large
// population is tens of MB of JSON.
const MaxBodyBytes = 128 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return DecodeStrict(http.MaxBytesReader(w, r.Body, MaxBodyBytes), v)
}

// DecodeStrict decodes exactly one JSON value: unknown fields and trailing
// data are both rejected. The trailing-data check closes a silent-accept
// hole the ingest fuzzer found — `{"tests":[...]}garbage` used to ingest the
// first value and discard the rest without complaint.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// snapshotOr503 returns the current snapshot, writing a 503 if the store is
// still empty (nothing has been ingested, so there is nothing to score).
func (s *Server) snapshotOr503(w http.ResponseWriter) *Snapshot {
	sn := s.Store().Snapshot()
	if sn == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("store is empty; ingest line tests first"))
	}
	return sn
}

// setReplicaLag stamps the follower's current staleness on a data-plane
// response header; a no-op on leaders and standalone daemons, whose wire
// surface stays byte-identical.
func (s *Server) setReplicaLag(w http.ResponseWriter) {
	if s.replicaStatus == nil {
		return
	}
	w.Header().Set("X-Replica-Lag", strconv.FormatUint(s.replicaStatus().Lag(), 10))
}

// --- handlers -----------------------------------------------------------------

// IngestRequest is /v1/ingest's body; exported so the fuzz targets and the
// fleet gateway drive the exact decoder the handler uses.
type IngestRequest struct {
	Tests   []TestRecord   `json:"tests"`
	Tickets []TicketRecord `json:"tickets"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.readOnly {
		writeError(w, http.StatusForbidden,
			errors.New("replica is read-only; ingest through the leader"))
		return
	}
	var req IngestRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := s.Store()
	nt, err := st.IngestTests(req.Tests)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	nk, err := st.IngestTickets(req.Tickets)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.m.ingestedTests.Add(int64(nt))
	s.m.ingestedTickets.Add(int64(nk))
	writeJSON(w, http.StatusOK, map[string]any{
		"ingested_tests":   nt,
		"ingested_tickets": nk,
		"lines":            st.NumLines(),
		"version":          st.Version(),
	})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if s.scoreBarrier != nil {
		s.scoreBarrier()
	}
	s.setReplicaLag(w)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	body, err := readBody(w, r, sc)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	exs, ok := parseScoreBody(body, sc.examples[:0])
	if ok {
		sc.examples = exs // keep the grown backing array for the pool
	} else {
		// The fast grammar balked: rerun the strict reflective decoder so a
		// malformed body gets the exact error text it always has, and a
		// merely unusual body (escaped keys, duplicate "examples") still
		// parses as encoding/json defines it.
		var req struct {
			Examples []ScoreExample `json:"examples"`
		}
		if err := DecodeStrict(bytes.NewReader(body), &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		exs = req.Examples
	}
	if len(exs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no examples"))
		return
	}
	sn := s.snapshotOr503(w)
	if sn == nil {
		return
	}
	singleWeek := true
	for i, e := range exs {
		if e.Week < 0 || e.Week >= data.Weeks {
			writeError(w, http.StatusBadRequest, fmt.Errorf("example %d: week %d outside [0,%d)", i, e.Week, data.Weeks))
			return
		}
		if e.Line < 0 || int(e.Line) >= sn.DS.NumLines {
			writeError(w, http.StatusBadRequest, fmt.Errorf("example %d: line %d unknown to the store", i, e.Line))
			return
		}
		if e.Week != exs[0].Week {
			singleWeek = false
		}
	}
	if singleWeek {
		// Steady-state path: every answer is a lookup in the week's resident
		// score table and a splice of its prerendered fragments.
		tab, err := sn.scoreTable(s.Models(), exs[0].Week)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		buf := append(sc.out[:0], `{"predictions":[`...)
		for i, e := range exs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, tab.frag(e.Line)...)
		}
		buf = append(buf, `],"version":`...)
		buf = strconv.AppendUint(buf, sn.Version, 10)
		buf = append(buf, '}', '\n')
		sc.out = buf
		writeRawJSON(w, buf)
		return
	}
	// Mixed-week request: the general per-example path.
	examples := make([]features.Example, len(exs))
	for i, e := range exs {
		examples[i] = features.Example{Line: e.Line, Week: e.Week}
	}
	preds, err := s.Models().Pred.PredictExamples(sn.DS, sn.Ix, examples)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version":     sn.Version,
		"predictions": toWire(preds),
	})
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	s.setReplicaLag(w)
	sn := s.snapshotOr503(w)
	if sn == nil {
		return
	}
	models := s.Models()
	var q url.Values
	if r.URL.RawQuery != "" {
		q = r.URL.Query()
	}
	week, n, err := ParseRankParams(q, s.Store().LatestWeek(), models.Pred.Cfg.BudgetN)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	lines := sn.LinesAt(week)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	buf := sc.out[:0]
	if len(lines) > 0 {
		tab, err := sn.scoreTable(models, week)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		ranked := tab.rankedLines(sn)
		if n > len(ranked) {
			n = len(ranked)
		}
		buf = append(buf, `{"n":`...)
		buf = strconv.AppendInt(buf, int64(n), 10)
		buf = append(buf, `,"population":`...)
		buf = strconv.AppendInt(buf, int64(len(lines)), 10)
		buf = append(buf, `,"predictions":[`...)
		for i, l := range ranked[:n] {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, tab.frag(l)...)
		}
	} else {
		buf = append(buf, `{"n":0,"population":0,"predictions":[`...)
	}
	buf = append(buf, `],"week":`...)
	buf = strconv.AppendInt(buf, int64(week), 10)
	buf = append(buf, '}', '\n')
	sc.out = buf
	writeRawJSON(w, buf)
}

// ParseRankParams parses /v1/rank's query parameters: week defaults to the
// store's latest, n to the model's budget; non-integer or out-of-range
// values are rejected rather than clamped or prefix-parsed, and the fuzz
// target FuzzRankParams holds it to that.
func ParseRankParams(q url.Values, defWeek, defN int) (week, n int, err error) {
	week, n = defWeek, defN
	if v := q.Get("week"); v != "" {
		if week, err = strconv.Atoi(v); err != nil {
			return 0, 0, fmt.Errorf("bad week %q", v)
		}
	}
	if week < 0 || week >= data.Weeks {
		return 0, 0, fmt.Errorf("week %d outside [0,%d)", week, data.Weeks)
	}
	if v := q.Get("n"); v != "" {
		if n, err = strconv.Atoi(v); err != nil || n < 1 {
			return 0, 0, fmt.Errorf("bad n %q", v)
		}
	}
	return week, n, nil
}

func (s *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	s.setReplicaLag(w)
	var req struct {
		Line  data.LineID `json:"line"`
		Week  int         `json:"week"`
		Model string      `json:"model"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	model, err := core.ParseLocatorModel(req.Model)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	loc := s.Models().Loc
	if loc == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("no locator loaded"))
		return
	}
	sn := s.snapshotOr503(w)
	if sn == nil {
		return
	}
	if req.Week < 0 || req.Week >= data.Weeks {
		writeError(w, http.StatusBadRequest, fmt.Errorf("week %d outside [0,%d)", req.Week, data.Weeks))
		return
	}
	if req.Line < 0 || int(req.Line) >= sn.DS.NumLines {
		writeError(w, http.StatusBadRequest, fmt.Errorf("line %d unknown to the store", req.Line))
		return
	}
	post, err := loc.PosteriorsIx(sn.DS, sn.Ix, []core.DispatchCase{{Line: req.Line, Week: req.Week}}, model)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	type dispJSON struct {
		ID          int     `json:"id"`
		Name        string  `json:"name"`
		Location    string  `json:"location"`
		Probability float64 `json:"probability"`
	}
	out := make([]dispJSON, len(loc.Dispositions))
	for j, d := range loc.Dispositions {
		out[j] = dispJSON{
			ID:          int(d),
			Name:        faults.Catalog[d].Name,
			Location:    faults.Catalog[d].Loc.String(),
			Probability: post[0][j],
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Probability != out[b].Probability {
			return out[a].Probability > out[b].Probability
		}
		return out[a].ID < out[b].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"line":         req.Line,
		"week":         req.Week,
		"model":        model.String(),
		"dispositions": out,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	models := s.Models()
	st := s.Store()
	body := map[string]any{
		"status":             "ok",
		"lines":              st.NumLines(),
		"latest_week":        st.LatestWeek(),
		"predictor":          true,
		"locator":            models.Loc != nil,
		"model_id":           models.ID,
		"schema_fingerprint": fmt.Sprintf("%016x", models.Pred.SchemaFingerprint()),
		"uptime_seconds":     time.Since(s.m.start).Seconds(),
		// Fleet probe surface: the gateway resolves /v1/rank defaults and
		// snapshot freshness from these without a data-plane round trip.
		"budget_n":     models.Pred.Cfg.BudgetN,
		"version":      st.Version(),
		"snapshot_lag": st.SnapshotLag(),
		"grid_lines":   st.GridLines(),
	}
	if s.replicaStatus != nil {
		rs := s.replicaStatus()
		body["replica"] = true
		body["replica_lag"] = rs.Lag()
		body["replica_applied"] = rs.Applied
		body["replica_leader_version"] = rs.LeaderVersion
		body["replica_connected"] = rs.Connected
	}
	if fn := s.driftStatus.Load(); fn != nil {
		body["drift"] = (*fn)()
	}
	writeJSON(w, http.StatusOK, body)
}

// DriftStatus is the drift-loop block /healthz publishes when a drift
// controller is attached (see internal/drift): which model generation is
// serving, where the champion/challenger state machine stands, and how
// many shadow weeks remain before a promotion decision.
type DriftStatus struct {
	ModelID          string `json:"model_id"`
	State            string `json:"state"`
	ConsecutiveTrips int    `json:"consecutive_trips"`
	ShadowWeeks      int    `json:"shadow_weeks"`
	WeeksToPromotion int    `json:"weeks_to_promotion"`
	Retrains         int    `json:"retrains"`
	Promotions       int    `json:"promotions"`
	Rollbacks        int    `json:"rollbacks"`
}

// SetDriftStatus attaches the drift controller's status snapshot to
// /healthz. Safe to call after the server starts serving.
func (s *Server) SetDriftStatus(fn func() DriftStatus) { s.driftStatus.Store(&fn) }

// MountDrift mounts the drift controller's report endpoint at
// GET /v1/drift. Like the rest of the monitoring plane it bypasses
// admission control and request deadlines — loop state is exactly what an
// operator needs while the daemon is struggling. Call before serving.
func (s *Server) MountDrift(h http.HandlerFunc) {
	s.mux.HandleFunc("GET /v1/drift", s.m.instrument("drift", h))
}

// handleMetrics serves the registry in Prometheus text exposition format.
// The format is a stability contract pinned by TestMetricsGolden; p50/p95/
// p99 are derivable from the histogram buckets by any Prometheus-compatible
// scraper.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.reg.WritePrometheus(w)
}

// handleTrace serves the stage tracer's flight recorder: the retained spans
// oldest to newest plus lifetime totals, the readout for "where did the
// slow week go".
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.tracer.Snapshot())
}

// --- hot reload ---------------------------------------------------------------

// ReloadResult reports what a hot reload did. ProbeExamples is how many
// store-backed examples the equality probe scored with both generations
// (0 when the store is empty — the swap then proceeds unprobed). Identical
// is whether old and new scores (and locator posteriors, when both exist)
// were bit-identical; reloading an unchanged model file must report true.
type ReloadResult struct {
	ProbeExamples     int     `json:"probe_examples"`
	Identical         bool    `json:"identical"`
	MaxAbsDiff        float64 `json:"max_abs_diff"`
	SchemaFingerprint string  `json:"schema_fingerprint"`
}

// reloadProbeMax bounds the equality probe: two logistic-calibrated scores
// per example over a few hundred examples is ample evidence, and the probe
// runs with the reload lock held.
const reloadProbeMax = 256

// Reload re-reads the model files and atomically swaps the current model
// pair. The contract: the new models must successfully score a probe batch
// drawn from the live store before the swap happens — a model file whose
// schema has drifted from the store's data is rejected and the old
// generation keeps serving. Requests racing the reload see either the old
// or the new pair, never a mix. Any failure — unreadable file, schema
// drift, or an injected probe fault — leaves the old generation serving and
// bumps the reload_failures gauge.
func (s *Server) Reload() (*ReloadResult, error) {
	res, err := s.reload()
	if err != nil {
		s.m.reloadFailures.Add(1)
	}
	return res, err
}

func (s *Server) reload() (*ReloadResult, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.predictorPath == "" {
		return nil, errors.New("serve: reload needs a predictor model path")
	}
	old := s.Models()
	pred, err := core.LoadPredictor(s.predictorPath)
	if err != nil {
		return nil, err
	}
	// Operational settings travel with the process, not the model file:
	// the worker-pool size and the -budget override both outlive a reload.
	pred.Cfg.Workers = old.Pred.Cfg.Workers
	pred.Cfg.BudgetN = old.Pred.Cfg.BudgetN
	loc := old.Loc
	if s.locatorPath != "" {
		loc, err = core.LoadLocator(s.locatorPath)
		if err != nil {
			return nil, err
		}
	}

	id := fmt.Sprintf("reload-%016x", pred.SchemaFingerprint())
	return s.probeAndSwap(old, pred, loc, id)
}

// Promote atomically swaps an in-memory predictor into service through the
// same probe-verified path a file reload takes: the candidate must score a
// probe batch drawn from the live store before the swap, and any failure —
// an injected probe fault, a schema mismatch — leaves the current champion
// serving and bumps reload_failures. This is the drift loop's promotion
// (and rollback) edge; the locator generation is carried over unchanged.
func (s *Server) Promote(pred *core.TicketPredictor, id string) (*ReloadResult, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.Models()
	// Operational settings travel with the process (see reload).
	pred.Cfg.Workers = old.Pred.Cfg.Workers
	pred.Cfg.BudgetN = old.Pred.Cfg.BudgetN
	res, err := s.probeAndSwap(old, pred, old.Loc, id)
	if err != nil {
		s.m.reloadFailures.Add(1)
	}
	return res, err
}

// probeAndSwap runs the reload probe contract against the live store and,
// only on success, publishes the new model pair. Callers hold reloadMu.
func (s *Server) probeAndSwap(old *Models, pred *core.TicketPredictor, loc *core.TroubleLocator, id string) (*ReloadResult, error) {
	if h := s.faults; h != nil && h.ReloadProbe != nil {
		if err := h.ReloadProbe(); err != nil {
			return nil, fmt.Errorf("serve: reload probe: %w", err)
		}
	}
	res := &ReloadResult{Identical: true, SchemaFingerprint: fmt.Sprintf("%016x", pred.SchemaFingerprint())}
	st := s.Store()
	if sn := st.Snapshot(); sn != nil {
		week := st.LatestWeek()
		lines := sn.LinesAt(week)
		if len(lines) > reloadProbeMax {
			lines = lines[:reloadProbeMax]
		}
		if len(lines) > 0 {
			examples := make([]features.Example, len(lines))
			for i, l := range lines {
				examples[i] = features.Example{Line: l, Week: week}
			}
			oldScores, err := old.Pred.ScoreExamplesIx(sn.DS, sn.Ix, examples)
			if err != nil {
				return nil, fmt.Errorf("serve: probing current predictor: %w", err)
			}
			newScores, err := pred.ScoreExamplesIx(sn.DS, sn.Ix, examples)
			if err != nil {
				return nil, fmt.Errorf("serve: reloaded predictor cannot score the store: %w", err)
			}
			res.ProbeExamples = len(examples)
			for i := range oldScores {
				if d := math.Abs(oldScores[i] - newScores[i]); d > res.MaxAbsDiff {
					res.MaxAbsDiff = d
				}
				if oldScores[i] != newScores[i] {
					res.Identical = false
				}
			}
			if loc != nil {
				cases := []core.DispatchCase{{Line: examples[0].Line, Week: examples[0].Week}}
				newPost, err := loc.PosteriorsIx(sn.DS, sn.Ix, cases, core.ModelCombined)
				if err != nil {
					return nil, fmt.Errorf("serve: reloaded locator cannot score the store: %w", err)
				}
				if old.Loc != nil && len(old.Loc.Dispositions) == len(loc.Dispositions) {
					oldPost, err := old.Loc.PosteriorsIx(sn.DS, sn.Ix, cases, core.ModelCombined)
					if err != nil {
						return nil, fmt.Errorf("serve: probing current locator: %w", err)
					}
					for j := range newPost[0] {
						if newPost[0][j] != oldPost[0][j] {
							res.Identical = false
						}
					}
				}
			}
		}
	}
	s.models.Store(&Models{Pred: pred, Loc: loc, ID: id})
	s.m.reloads.Add(1)
	return res, nil
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	res, err := s.Reload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
