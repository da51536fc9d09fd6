package serve

import (
	"net/http"
	runtimemetrics "runtime/metrics"
	"time"

	"nevermind/internal/obs"
)

// Metric names, label sets and units are a stability contract (see
// DESIGN.md "Observability contract"): dashboards parse them, and the
// exposition-format golden test pins them. Routes and stages are preset at
// construction so the /metrics series set is deterministic from boot
// instead of depending on which traffic arrived first.
var (
	routeNames     = []string{"healthz", "ingest", "locate", "metrics", "rank", "reload", "score", "trace"}
	pipelineStages = []string{"pull", "ingest", "snapshot", "score", "rank", "dispatch"}
	// driftStages are the drift loop's tracer stages (see internal/drift).
	// Not preset into the stage-duration histogram: a daemon without a
	// drift controller keeps its exact /metrics series set.
	driftStages = []string{"monitor", "retrain", "shadow", "holdout", "promote", "rollback"}
	retryOps    = []string{"pull", "ingest", "snapshot"}
	storeOps    = []string{"ingest_tests", "ingest_tickets", "snapshot"}
)

// metrics owns the server's observability state: the registry every counter
// and histogram lives in, and the ring-buffer tracer the pipeline writes
// stage spans into. The registry is per-server, never process-global — a
// test binary spins up many servers, and global names collide. /metrics is
// the server's only counter surface.
type metrics struct {
	start  time.Time
	reg    *obs.Registry
	tracer *obs.Tracer

	requests *obs.CounterVec   // per route: requests served
	errors   *obs.CounterVec   // per route: responses with status >= 400
	latency  *obs.HistogramVec // per route: handling time, seconds

	ingestedTests   *obs.Counter
	ingestedTickets *obs.Counter
	reloads         *obs.Counter
	reloadFailures  *obs.Counter // reload attempts that kept the old generation

	loadShed *obs.Counter // requests refused 503 at admission (max-inflight)
	timeouts *obs.Counter // requests whose deadline expired mid-handling

	pipelineTicks     *obs.Counter
	pipelineWeek      *obs.Gauge // latest completed week
	pipelineSubmitted *obs.Counter
	pipelineWorked    *obs.Counter
	pipelineExpired   *obs.Counter
	pipelineRetries   *obs.Counter
	retriesByOp       *obs.CounterVec   // pull / ingest / snapshot
	stageDur          *obs.HistogramVec // per pipeline stage: duration

	storeIngestDur   *obs.HistogramVec // ingest_tests / ingest_tickets
	storeBuildDur    *obs.Histogram    // snapshot publish with no base
	snapshotApplyDur *obs.Histogram    // snapshot publish from a base
	snapshotBuilds   *obs.CounterVec   // successful publishes: full (no base) / delta
	shardContended   *obs.CounterVec   // shard-lock acquisitions that had to wait

	scoreDur  *obs.Histogram // compiled-scorer batch calls (ml hook)
	scoreRows *obs.Counter   // examples scored through the compiled scorer
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		start:  time.Now(),
		reg:    reg,
		tracer: obs.NewTracer(0),
	}
	m.requests = reg.CounterVec("nevermind_http_requests_total",
		"Requests served, by route.", "route").Preset(routeNames...)
	m.errors = reg.CounterVec("nevermind_http_request_errors_total",
		"Responses with status >= 400, by route.", "route").Preset(routeNames...)
	m.latency = reg.HistogramVec("nevermind_http_request_duration_seconds",
		"Request handling time, by route.", "route", nil).Preset(routeNames...)

	m.ingestedTests = reg.Counter("nevermind_ingested_tests_total",
		"Line-test records ingested (HTTP and pipeline).")
	m.ingestedTickets = reg.Counter("nevermind_ingested_tickets_total",
		"Customer tickets ingested (HTTP and pipeline).")
	m.reloads = reg.Counter("nevermind_model_reloads_total",
		"Model hot-reloads that swapped the serving generation.")
	m.reloadFailures = reg.Counter("nevermind_model_reload_failures_total",
		"Reload attempts that failed and kept the old generation.")

	m.loadShed = reg.Counter("nevermind_http_load_shed_total",
		"Requests refused 503 at admission (max-inflight).")
	m.timeouts = reg.Counter("nevermind_http_timeouts_total",
		"Requests whose deadline expired mid-handling.")

	m.pipelineTicks = reg.Counter("nevermind_pipeline_ticks_total",
		"Completed weekly pipeline ticks.")
	m.pipelineWeek = reg.Gauge("nevermind_pipeline_week",
		"Latest week the pipeline completed.")
	m.pipelineSubmitted = reg.Counter("nevermind_pipeline_submitted_total",
		"Predicted jobs pushed into the ATDS queue.")
	m.pipelineWorked = reg.Counter("nevermind_pipeline_worked_total",
		"Predicted jobs started within the horizon.")
	m.pipelineExpired = reg.Counter("nevermind_pipeline_expired_total",
		"Predicted jobs aged out unworked.")
	m.pipelineRetries = reg.Counter("nevermind_pipeline_retries_total",
		"Pipeline attempts that failed and were retried (all ops).")
	m.retriesByOp = reg.CounterVec("nevermind_pipeline_retries_by_op_total",
		"Pipeline attempts retried, by operation.", "op").Preset(retryOps...)
	m.stageDur = reg.HistogramVec("nevermind_pipeline_stage_duration_seconds",
		"Duration of each pipeline stage execution.", "stage", nil).Preset(pipelineStages...)

	m.storeIngestDur = reg.HistogramVec("nevermind_store_ingest_duration_seconds",
		"Store batch ingest time, by record kind.", "op", nil).Preset("ingest_tests", "ingest_tickets")
	m.storeBuildDur = reg.Histogram("nevermind_store_snapshot_build_duration_seconds",
		"Snapshot full grid rebuild time (successful and failed builds).", nil)
	m.snapshotApplyDur = reg.Histogram("nevermind_store_snapshot_delta_apply_duration_seconds",
		"Snapshot delta apply time (successful and failed applies).", nil)
	m.snapshotBuilds = reg.CounterVec("nevermind_store_snapshot_builds_total",
		"Successful snapshot builds, by kind.", "kind").Preset("delta", "full")
	m.shardContended = reg.CounterVec("nevermind_store_shard_contention_total",
		"Shard-lock acquisitions that found the lock held, by operation.", "op").Preset(storeOps...)

	m.scoreDur = reg.Histogram("nevermind_ml_score_duration_seconds",
		"Compiled-scorer batch score calls.", nil)
	m.scoreRows = reg.Counter("nevermind_ml_score_rows_total",
		"Examples scored through the compiled scorer.")

	reg.GaugeFunc("nevermind_uptime_seconds",
		"Seconds since the server was built.", obs.Uptime(m.start))
	reg.GaugeFunc("nevermind_trace_spans_active",
		"Stage spans started but not yet finished (leaks if it sticks above 0).",
		func() float64 { return float64(m.tracer.Started() - m.tracer.Finished()) })
	reg.CounterFunc("nevermind_trace_spans_total",
		"Stage spans recorded since boot.",
		func() float64 { return float64(m.tracer.Finished()) })
	reg.GaugeFunc("nevermind_go_heap_goal_bytes",
		"Heap size the Go garbage collector targets for this cycle (runtime/metrics /gc/heap/goal:bytes).",
		heapGoalBytes)
	return m
}

// heapGoalBytes reads the runtime's current heap goal.
func heapGoalBytes() float64 {
	sample := []runtimemetrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	runtimemetrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// bindServer registers the exposition-time gauges that read live server
// state: store size, staleness and ownership filtering, degraded mode.
// Called once from New, after the store exists.
func (m *metrics) bindServer(s *Server) {
	reg := m.reg
	reg.GaugeFunc("nevermind_store_lines",
		"Distinct lines in the store.",
		func() float64 { return float64(s.Store().NumLines()) })
	reg.GaugeFunc("nevermind_store_version",
		"Store ingest version (bumps on every successful ingest).",
		func() float64 { return float64(s.Store().Version()) })
	reg.GaugeFunc("nevermind_store_latest_week",
		"Newest week any ingested test record carried (-1 before the first).",
		func() float64 { return float64(s.Store().LatestWeek()) })
	reg.GaugeFunc("nevermind_store_snapshot_lag",
		"Ingest versions the cached snapshot trails the store (0 = fresh).",
		func() float64 { return float64(s.Store().SnapshotLag()) })
	reg.CounterFunc("nevermind_store_snapshot_build_failures_total",
		"Snapshot rebuilds that failed (readers keep the last good snapshot).",
		func() float64 { return float64(s.Store().BuildFailures()) })
	reg.GaugeFunc("nevermind_degraded",
		"1 while scoring serves a stale snapshot, else 0.",
		func() float64 {
			if s.Store().SnapshotLag() > 0 {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("nevermind_store_grid_bytes",
		"Test-cell bytes held by the store grid's written chunks (unwritten slots share one no-record chunk).",
		func() float64 { return float64(s.Store().GridBytes()) })
	reg.CounterFunc("nevermind_store_filtered_records_total",
		"Valid records dropped by the fleet ownership filter (line owned by another shard).",
		func() float64 { return float64(s.Store().FilteredRecords()) })
}

// statusWriter captures the response status so the instrumentation can count
// error responses.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route request, error and latency
// accounting under the given name.
func (m *metrics) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	requests := m.requests.With(name)
	errors := m.errors.With(name)
	latency := m.latency.With(name)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		requests.Add(1)
		latency.Observe(time.Since(t0))
		if sw.status >= 400 {
			errors.Add(1)
		}
	}
}
