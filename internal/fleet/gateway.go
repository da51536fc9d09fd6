package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/obs"
	"nevermind/internal/serve"
)

// ShardSpec names one fleet member: its ring name (the identity ownership
// hashes over — stable across restarts and address changes) and its base
// URL ("http://host:port").
type ShardSpec struct {
	Name string
	URL  string
	// Replicas lists read-replica base URLs for this shard (nevermindd
	// -replica.of pointed at URL). Reads prefer a healthy, fresh-enough
	// replica; ingest and fleet control always go to the leader.
	Replicas []string
}

// Config assembles a Gateway.
type Config struct {
	// Shards is the fleet membership. Every member must run nevermindd with
	// the same -fleet.peers list so its store filter agrees with the ring.
	Shards []ShardSpec
	// Replicas is the virtual-node count per shard (0 = DefaultReplicas).
	Replicas int
	// Retry bounds per-shard-call retries; zero values take the pipeline
	// defaults (6 attempts, 50ms..2s exponential backoff with jitter).
	Retry serve.RetryConfig
	// Transport, when set, replaces the pooled TCP transport on every shard
	// client — benchmarks and fuzz harnesses splice shards in-process.
	Transport http.RoundTripper
	// ProbeInterval paces the background health prober (0 = 1s).
	ProbeInterval time.Duration
	// DrainTimeout bounds graceful shutdown (0 = 10s).
	DrainTimeout time.Duration
	// MaxReplicaLag is the staleness bound for replica reads: a replica
	// whose last probe reported more versions of lag than this is skipped
	// and the read goes to the leader. 0 = DefaultMaxReplicaLag.
	MaxReplicaLag uint64
	// Sleep replaces time.Sleep for retry backoff; tests inject an instant
	// fake. nil = time.Sleep.
	Sleep func(time.Duration)
	// Hooks is the chaos injection seam; nil in production.
	Hooks *FaultHooks
}

// Gateway fronts a consistent-hash sharded nevermindd fleet: per-line routes
// (/v1/ingest, /v1/score, /v1/locate) go to the owning shard, /v1/rank
// scatter-gathers the per-shard top-N exports through a streaming merge, and
// /metrics carries per-shard health gauges. The data-plane contract: a
// 1-shard gateway answers byte-for-byte as the bare daemon would; the
// gateway's own monitoring endpoints (/healthz, /metrics) are fleet-shaped
// and outside that contract.
type Gateway struct {
	ring         *Ring
	clients      []*ShardClient
	replicas     []*replicaSet // parallel to clients; entries may be empty
	maxLag       uint64
	m            *gwMetrics
	mux          *http.ServeMux
	prober       *prober
	drainTimeout time.Duration

	startOnce sync.Once
	stopOnce  sync.Once
	started   bool
}

// NewGateway builds a gateway over the given fleet.
func NewGateway(cfg Config) (*Gateway, error) {
	names := make([]string, len(cfg.Shards))
	for i, s := range cfg.Shards {
		names[i] = s.Name
	}
	ring, err := NewRing(names, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	var replicaNames []string
	for _, s := range cfg.Shards {
		for k := range s.Replicas {
			replicaNames = append(replicaNames, replicaName(s.Name, k))
		}
	}
	g := &Gateway{
		ring:         ring,
		maxLag:       cfg.MaxReplicaLag,
		m:            newGwMetrics(names, replicaNames),
		drainTimeout: cfg.DrainTimeout,
	}
	if g.maxLag == 0 {
		g.maxLag = DefaultMaxReplicaLag
	}
	if g.drainTimeout <= 0 {
		g.drainTimeout = 10 * time.Second
	}
	g.clients = make([]*ShardClient, len(cfg.Shards))
	g.replicas = make([]*replicaSet, len(cfg.Shards))
	for i, s := range cfg.Shards {
		if s.URL == "" {
			return nil, fmt.Errorf("fleet: shard %q has no URL", s.Name)
		}
		c := newShardClient(s.Name, s.URL, i, cfg.Retry, cfg.Transport, cfg.Sleep)
		c.hooks = cfg.Hooks
		retries := g.m.shardRetries.With(s.Name)
		c.onRetry = func() { retries.Add(1) }
		g.clients[i] = c
		// Optimistic until the first probe or failure says otherwise.
		g.m.shardUp.With(s.Name).Set(1)

		rs := &replicaSet{}
		for k, u := range s.Replicas {
			if u == "" {
				return nil, fmt.Errorf("fleet: shard %q replica %d has no URL", s.Name, k)
			}
			name := replicaName(s.Name, k)
			// Replicas retry at most once: the leader is the fallback, so a
			// flaky replica should lose the request quickly, not hold it
			// through a full backoff ladder.
			retry := cfg.Retry
			retry.MaxAttempts = 2
			rc := &replicaState{client: newShardClient(name, u, i, retry, cfg.Transport, cfg.Sleep)}
			rc.client.hooks = cfg.Hooks
			rs.members = append(rs.members, rc)
			g.m.replicaUp.With(name).Set(0) // pessimistic until probed
		}
		g.replicas[i] = rs
	}
	g.prober = newProber(g, cfg.ProbeInterval)

	// The data-plane patterns mirror the daemon's registrations exactly, so
	// unknown routes and wrong methods produce the same ServeMux-generated
	// 404/405 bytes a bare daemon produces.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", g.m.instrument("ingest", g.handleIngest))
	mux.HandleFunc("POST /v1/score", g.m.instrument("score", g.handleScore))
	mux.HandleFunc("GET /v1/rank", g.m.instrument("rank", g.handleRank))
	mux.HandleFunc("POST /v1/locate", g.m.instrument("locate", g.handleLocate))
	mux.HandleFunc("POST /v1/reload", g.m.instrument("reload", g.handleReload))
	mux.HandleFunc("GET /healthz", g.m.instrument("healthz", g.handleHealthz))
	mux.HandleFunc("GET /metrics", g.m.instrument("metrics", g.handleMetrics))
	g.mux = mux
	return g, nil
}

// Ring exposes the gateway's ownership ring.
func (g *Gateway) Ring() *Ring { return g.ring }

// Registry exposes the gateway's metrics registry.
func (g *Gateway) Registry() *obs.Registry { return g.m.reg }

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Start launches the background health prober. Idempotent.
func (g *Gateway) Start() {
	g.startOnce.Do(func() {
		g.started = true
		go g.prober.run()
	})
}

// Stop ends the prober if Start launched it. Idempotent.
func (g *Gateway) Stop() {
	g.stopOnce.Do(func() {
		close(g.prober.stop)
		if g.started {
			<-g.prober.done
		}
	})
}

// Serve runs the gateway on ln until ctx is cancelled, then drains exactly
// as the daemon does.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	g.Start()
	defer g.Stop()
	srv := &http.Server{Handler: g.mux, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), g.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("fleet: drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// writeJSON/writeError replicate the daemon's encoders byte-for-byte
// (json.Encoder output is newline-terminated; map keys encode sorted).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// DefaultMaxReplicaLag is the staleness bound for replica reads when the
// config leaves it zero: a replica trailing the leader by more ingest
// versions than this serves no reads until it catches up.
const DefaultMaxReplicaLag = 64

// replicaName labels shard s's k-th replica in metrics and errors.
func replicaName(shard string, k int) string {
	return fmt.Sprintf("%s-r%d", shard, k)
}

// replicaState is one replica's client plus the health the prober last saw.
// up starts false: a replica serves no reads until a probe has proven it
// reachable and fresh enough.
type replicaState struct {
	client *ShardClient
	up     atomic.Bool
	lag    atomic.Uint64
}

// replicaSet is one shard's replicas plus the round-robin cursor reads
// rotate through.
type replicaSet struct {
	members []*replicaState
	next    atomic.Uint32
}

// pickReplica returns the next healthy, fresh-enough replica for a shard, or
// nil when the leader should serve the read itself.
func (g *Gateway) pickReplica(idx int) *replicaState {
	rs := g.replicas[idx]
	if rs == nil || len(rs.members) == 0 {
		return nil
	}
	start := int(rs.next.Add(1))
	for k := 0; k < len(rs.members); k++ {
		rc := rs.members[(start+k)%len(rs.members)]
		if rc.up.Load() && rc.lag.Load() <= g.maxLag {
			return rc
		}
	}
	return nil
}

// readCall serves one read-path shard request (score, locate, rank legs):
// it prefers a replica, and on replica failure — transport error or a 5xx —
// falls back to the leader within the same request, marking the replica down
// so the next read skips it until a probe brings it back. Ingest, reload and
// health always use shardCall directly.
func (g *Gateway) readCall(ctx context.Context, idx int, op, method, path, ct string, body []byte) (*Response, error) {
	if rc := g.pickReplica(idx); rc != nil {
		resp, err := rc.client.Do(ctx, op, method, path, ct, body)
		if err == nil && resp.Status < 500 {
			g.m.replicaReads.With(rc.client.name).Add(1)
			return resp, nil
		}
		// A 5xx from a replica (empty store mid-bootstrap, drain) is not the
		// fleet's answer while the leader can still give a real one.
		g.m.replicaErrors.With(rc.client.name).Add(1)
		g.m.readFallbacks.Add(1)
		rc.up.Store(false)
		g.m.replicaUp.With(rc.client.name).Set(0)
	}
	return g.shardCall(ctx, idx, op, method, path, ct, body)
}

// shardCall performs one retried shard request, downgrading the shard's
// health state the moment its retry budget is exhausted (rather than on the
// next probe tick).
func (g *Gateway) shardCall(ctx context.Context, idx int, op, method, path, ct string, body []byte) (*Response, error) {
	c := g.clients[idx]
	resp, err := c.Do(ctx, op, method, path, ct, body)
	if err != nil {
		g.m.shardErrors.With(c.name).Add(1)
		g.prober.setDown(c.name, true)
		return nil, err
	}
	g.prober.setDown(c.name, false)
	return resp, nil
}

// shardResult is one scatter leg's outcome.
type shardResult struct {
	resp *Response
	err  error
}

// relayFirstFailure writes the lowest-shard-index failure: a shard's own
// error response verbatim (so a 1-shard fleet relays exactly what the bare
// daemon said), or a synthesized 503 when the shard never answered.
func relayFirstFailure(w http.ResponseWriter, results []shardResult, contacted []int) {
	for _, i := range contacted {
		r := results[i]
		if r.err != nil {
			writeError(w, http.StatusServiceUnavailable, r.err)
			return
		}
		if r.resp != nil && r.resp.Status != http.StatusOK {
			r.resp.relay(w)
			return
		}
	}
	writeError(w, http.StatusInternalServerError, errors.New("fleet: no failure to relay"))
}

// --- ingest --------------------------------------------------------------------

// ingestReply mirrors the daemon's /v1/ingest response body.
type ingestReply struct {
	IngestedTests   int    `json:"ingested_tests"`
	IngestedTickets int    `json:"ingested_tickets"`
	Lines           int    `json:"lines"`
	Version         uint64 `json:"version"`
}

// ingestScratch is one gateway ingest's reusable buffers: the body as read
// and its decode. Neither outlives the request: the shard sub-bodies are
// copies.
type ingestScratch struct {
	body []byte
	ib   serve.IngestBody
}

var ingestPool = sync.Pool{New: func() any { return new(ingestScratch) }}

func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := ingestPool.Get().(*ingestScratch)
	defer func() {
		// As in the daemon: a bulk load's buffers are not pinned in the pool.
		if cap(sc.body) > serve.MaxPooledIngest {
			sc.body, sc.ib = nil, serve.IngestBody{}
		}
		ingestPool.Put(sc)
	}()
	body, err := serve.ReadBody(w, r, sc.body)
	sc.body = body
	if err != nil {
		writeError(w, http.StatusBadRequest, serve.IngestReadError(body, err))
		return
	}
	ib := &sc.ib
	if err := ib.Parse(body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Whole-batch validation before any scatter: a bad batch is rejected
	// atomically fleet-wide with the daemon's exact error text, and no shard
	// ever sees part of one.
	if err := serve.ValidateIngest(&ib.IngestRequest); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	subs, err := g.splitIngest(body, ib)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Every shard gets its slice — empty slices included, so the merged
	// lines/version totals are fresh across the whole fleet (an empty ingest
	// does not bump a shard's version, it just reports current state).
	nsh := len(g.clients)
	results := make([]shardResult, nsh)
	contacted := make([]int, 0, nsh)
	var wg sync.WaitGroup
	for i, body := range subs {
		contacted = append(contacted, i)
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			results[i].resp, results[i].err = g.shardCall(r.Context(), i,
				"ingest", http.MethodPost, "/v1/ingest", "application/json", body)
		}(i, body)
	}
	wg.Wait()
	var merged ingestReply
	for _, i := range contacted {
		res := results[i]
		if res.err != nil || res.resp.Status != http.StatusOK {
			relayFirstFailure(w, results, contacted)
			return
		}
		var rep ingestReply
		if err := json.Unmarshal(res.resp.Body, &rep); err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", g.clients[i].name, err))
			return
		}
		merged.IngestedTests += rep.IngestedTests
		merged.IngestedTickets += rep.IngestedTickets
		merged.Lines += rep.Lines
		merged.Version += rep.Version
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ingested_tests":   merged.IngestedTests,
		"ingested_tickets": merged.IngestedTickets,
		"lines":            merged.Lines,
		"version":          merged.Version,
	})
}

// splitIngest builds each shard's /v1/ingest body from a validated request.
// When the fast grammar decoded it, a shard's body is the bytes of the
// records it owns, copied out of the request in request order, and the
// shard decodes them to exactly the values the gateway decoded. Any other
// body is re-marshalled from the decoded records.
func (g *Gateway) splitIngest(body []byte, ib *serve.IngestBody) ([][]byte, error) {
	nsh := len(g.clients)
	out := make([][]byte, nsh)
	if !ib.Spanned() {
		subs := make([]serve.IngestRequest, nsh)
		for _, t := range ib.Tests {
			o := g.ring.Owner(t.Line)
			subs[o].Tests = append(subs[o].Tests, t)
		}
		for _, t := range ib.Tickets {
			o := g.ring.Owner(t.Line)
			subs[o].Tickets = append(subs[o].Tickets, t)
		}
		for i := range subs {
			b, err := json.Marshal(&subs[i])
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}
	// Size every shard's body before copying, so each is one allocation.
	owner := make([]int, len(ib.Tests)+len(ib.Tickets))
	size := make([]int, nsh)
	for i, t := range ib.Tests {
		owner[i] = g.ring.Owner(t.Line)
		size[owner[i]] += ib.TestSpans[i].End - ib.TestSpans[i].Start + 1
	}
	for i, t := range ib.Tickets {
		o := g.ring.Owner(t.Line)
		owner[len(ib.Tests)+i] = o
		size[o] += ib.TicketSpans[i].End - ib.TicketSpans[i].Start + 1
	}
	for i := range out {
		out[i] = append(make([]byte, 0, size[i]+len(`{"tests":[],"tickets":[]}`)), `{"tests":[`...)
	}
	appendRecord := func(o int, sp serve.Span) {
		if b := out[o]; b[len(b)-1] != '[' {
			out[o] = append(b, ',')
		}
		out[o] = append(out[o], body[sp.Start:sp.End]...)
	}
	for i, sp := range ib.TestSpans {
		appendRecord(owner[i], sp)
	}
	for i := range out {
		out[i] = append(out[i], `],"tickets":[`...)
	}
	for i, sp := range ib.TicketSpans {
		appendRecord(owner[len(ib.Tests)+i], sp)
	}
	for i := range out {
		out[i] = append(out[i], `]}`...)
	}
	return out, nil
}

// --- score ---------------------------------------------------------------------

func (g *Gateway) handleScore(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	exs, err := serve.ParseScoreExamples(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(exs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no examples"))
		return
	}
	nsh := len(g.clients)
	// Partition by owner, remembering each example's position so shard
	// fragments splice back in request order.
	subs := make([][]serve.ScoreExample, nsh)
	origIdx := make([][]int, nsh)
	for i, e := range exs {
		o := g.ring.Owner(e.Line)
		subs[o] = append(subs[o], e)
		origIdx[o] = append(origIdx[o], i)
	}
	results := make([]shardResult, nsh)
	contacted := make([]int, 0, nsh)
	var wg sync.WaitGroup
	for i := 0; i < nsh; i++ {
		if len(subs[i]) == 0 {
			continue
		}
		sub, err := json.Marshal(struct {
			Examples []serve.ScoreExample `json:"examples"`
		}{subs[i]})
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		contacted = append(contacted, i)
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			results[i].resp, results[i].err = g.readCall(r.Context(), i,
				"score", http.MethodPost, "/v1/score", "application/json", body)
		}(i, sub)
	}
	wg.Wait()
	frags := make([][]byte, len(exs))
	var version uint64
	for _, i := range contacted {
		res := results[i]
		if res.err != nil || res.resp.Status != http.StatusOK {
			relayFirstFailure(w, results, contacted)
			return
		}
		shardFrags, err := splitArray(res.resp.Body, "predictions")
		if err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", g.clients[i].name, err))
			return
		}
		if len(shardFrags) != len(origIdx[i]) {
			writeError(w, http.StatusBadGateway, fmt.Errorf("shard %s returned %d predictions for %d examples",
				g.clients[i].name, len(shardFrags), len(origIdx[i])))
			return
		}
		v, err := fieldUint(res.resp.Body, "version")
		if err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", g.clients[i].name, err))
			return
		}
		version += v
		for k, f := range shardFrags {
			frags[origIdx[i][k]] = f
		}
	}
	// Splice the shard-rendered fragments into the daemon's exact envelope.
	// version is the sum of shard store versions — equal to the single
	// store's version when the fleet is one shard, and a consistent
	// monotonic fleet-wide ingest clock at any size.
	buf := make([]byte, 0, len(body)+len(exs)*80)
	buf = append(buf, `{"predictions":[`...)
	for i, f := range frags {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, f...)
	}
	buf = append(buf, `],"version":`...)
	buf = strconv.AppendUint(buf, version, 10)
	buf = append(buf, '}', '\n')
	writeRawJSON(w, buf)
}

// --- locate --------------------------------------------------------------------

func (g *Gateway) handleLocate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Decode only to learn the owner (and to reject malformed bodies with
	// the daemon's exact error); the owning shard gets the raw body and its
	// answer is relayed untouched.
	var req struct {
		Line  data.LineID `json:"line"`
		Week  int         `json:"week"`
		Model string      `json:"model"`
	}
	if err := serve.DecodeStrict(bytes.NewReader(body), &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	o := g.ring.Owner(req.Line)
	resp, err := g.readCall(r.Context(), o, "locate", http.MethodPost, "/v1/locate", "application/json", body)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	resp.relay(w)
}

// --- rank ----------------------------------------------------------------------

// probeShards scatters a live /healthz to every shard, updating the health
// gauges as a side effect. Returns per-shard health (nil where the probe
// failed) and the matching errors.
func (g *Gateway) probeShards(ctx context.Context) ([]*ShardHealth, []error) {
	hs := make([]*ShardHealth, len(g.clients))
	errs := make([]error, len(g.clients))
	var wg sync.WaitGroup
	for i, c := range g.clients {
		wg.Add(1)
		go func(i int, c *ShardClient) {
			defer wg.Done()
			h, err := c.Health(ctx)
			if err != nil {
				errs[i] = err
				g.m.shardErrors.With(c.name).Add(1)
				g.prober.setDown(c.name, true)
				return
			}
			hs[i] = h
			g.m.shardLines.With(c.name).Set(int64(h.Lines))
			g.m.shardWeek.With(c.name).Set(int64(h.LatestWeek))
			g.m.shardLag.With(c.name).Set(int64(h.SnapshotLag))
			g.prober.setDown(c.name, false)
		}(i, c)
	}
	wg.Wait()
	return hs, errs
}

func (g *Gateway) handleRank(w http.ResponseWriter, r *http.Request) {
	// Resolve fleet state first: the daemon's error ordering is empty-store
	// 503 before any parameter parsing, and the rank defaults (latest week,
	// budget n) live on the shards.
	hs, errs := g.probeShards(r.Context())
	var healthy, down []int
	for i := range hs {
		if hs[i] != nil {
			healthy = append(healthy, i)
		} else {
			down = append(down, i)
		}
	}
	if len(healthy) == 0 {
		writeError(w, http.StatusServiceUnavailable, errs[down[0]])
		return
	}
	empty := true
	for _, i := range healthy {
		if hs[i].GridLines > 0 {
			empty = false
		}
	}
	if empty {
		if len(down) > 0 {
			// A down shard might hold the only data; "empty" would be a lie.
			writeError(w, http.StatusServiceUnavailable, errs[down[0]])
			return
		}
		writeError(w, http.StatusServiceUnavailable, errors.New("store is empty; ingest line tests first"))
		return
	}
	defWeek, defN := -1, hs[healthy[0]].BudgetN
	for _, i := range healthy {
		if hs[i].LatestWeek > defWeek {
			defWeek = hs[i].LatestWeek
		}
	}
	var q url.Values
	if r.URL.RawQuery != "" {
		q = r.URL.Query()
	}
	week, n, err := serve.ParseRankParams(q, defWeek, defN)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Scatter the resolved query to every healthy shard holding data; each
	// answers with its local top-n heap export in rank order.
	var eligible []int
	for _, i := range healthy {
		if hs[i].GridLines > 0 {
			eligible = append(eligible, i)
		}
	}
	path := "/v1/rank?week=" + strconv.Itoa(week) + "&n=" + strconv.Itoa(n)
	results := make([]shardResult, len(g.clients))
	var wg sync.WaitGroup
	for _, i := range eligible {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i].resp, results[i].err = g.readCall(r.Context(), i,
				"rank", http.MethodGet, path, "", nil)
		}(i)
	}
	wg.Wait()
	var ok, failed []int
	for _, i := range eligible {
		if results[i].err == nil && results[i].resp.Status == http.StatusOK {
			ok = append(ok, i)
		} else {
			failed = append(failed, i)
		}
	}
	if len(ok) == 0 {
		relayFirstFailure(w, results, eligible)
		return
	}
	perShard := make([][][]byte, 0, len(ok))
	population := int64(0)
	for _, i := range ok {
		body := results[i].resp.Body
		frags, err := splitArray(body, "predictions")
		if err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", g.clients[i].name, err))
			return
		}
		pop, err := fieldInt(body, "population")
		if err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", g.clients[i].name, err))
			return
		}
		population += pop
		perShard = append(perShard, frags)
	}
	buf := make([]byte, 0, 1<<12)
	buf = append(buf, `{"n":`...)
	merged, emitted, err := mergeRank(nil, perShard, n)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	buf = strconv.AppendInt(buf, int64(emitted), 10)
	buf = append(buf, `,"population":`...)
	buf = strconv.AppendInt(buf, population, 10)
	buf = append(buf, `,"predictions":[`...)
	buf = append(buf, merged...)
	buf = append(buf, `],"week":`...)
	buf = strconv.AppendInt(buf, int64(week), 10)
	buf = append(buf, '}', '\n')
	// Degraded-but-serving: a subset answer is flagged, never silently
	// passed off as the whole fleet's ranking.
	if len(down) > 0 || len(failed) > 0 {
		w.Header().Set("X-Fleet-Partial", "true")
		g.m.partialRanks.Add(1)
	}
	writeRawJSON(w, buf)
}

// --- reload --------------------------------------------------------------------

func (g *Gateway) handleReload(w http.ResponseWriter, r *http.Request) {
	results := make([]shardResult, len(g.clients))
	contacted := make([]int, 0, len(g.clients))
	var wg sync.WaitGroup
	for i := range g.clients {
		contacted = append(contacted, i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i].resp, results[i].err = g.shardCall(r.Context(), i,
				"reload", http.MethodPost, "/v1/reload", "", nil)
		}(i)
	}
	wg.Wait()
	merged := serve.ReloadResult{Identical: true}
	for _, i := range contacted {
		res := results[i]
		if res.err != nil || res.resp.Status != http.StatusOK {
			relayFirstFailure(w, results, contacted)
			return
		}
		var rr serve.ReloadResult
		if err := json.Unmarshal(res.resp.Body, &rr); err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", g.clients[i].name, err))
			return
		}
		merged.ProbeExamples += rr.ProbeExamples
		merged.Identical = merged.Identical && rr.Identical
		if rr.MaxAbsDiff > merged.MaxAbsDiff {
			merged.MaxAbsDiff = rr.MaxAbsDiff
		}
		if merged.SchemaFingerprint == "" {
			merged.SchemaFingerprint = rr.SchemaFingerprint
		}
	}
	writeJSON(w, http.StatusOK, &merged)
}

// --- monitoring ----------------------------------------------------------------

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hs, errs := g.probeShards(r.Context())
	shards := make([]map[string]any, len(g.clients))
	var lines int
	var version uint64
	latestWeek, gridLines, up := -1, 0, 0
	var lag uint64
	budgetN := 0
	for i, c := range g.clients {
		if hs[i] == nil {
			shards[i] = map[string]any{
				"name":  c.name,
				"up":    false,
				"error": errs[i].Error(),
			}
			continue
		}
		h := hs[i]
		up++
		lines += h.Lines
		version += h.Version
		if h.LatestWeek > latestWeek {
			latestWeek = h.LatestWeek
		}
		if h.GridLines > gridLines {
			gridLines = h.GridLines
		}
		if h.SnapshotLag > lag {
			lag = h.SnapshotLag
		}
		if budgetN == 0 {
			budgetN = h.BudgetN
		}
		shards[i] = map[string]any{
			"name":         c.name,
			"up":           true,
			"lines":        h.Lines,
			"latest_week":  h.LatestWeek,
			"grid_lines":   h.GridLines,
			"version":      h.Version,
			"snapshot_lag": h.SnapshotLag,
		}
	}
	status := "ok"
	if up < len(g.clients) {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       status,
		"shards_total": len(g.clients),
		"shards_up":    up,
		"lines":        lines,
		"version":      version,
		"latest_week":  latestWeek,
		"grid_lines":   gridLines,
		"snapshot_lag": lag,
		"budget_n":     budgetN,
		"shards":       shards,
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.m.reg.WritePrometheus(w)
}
