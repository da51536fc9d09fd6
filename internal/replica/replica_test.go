package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/features"
	"nevermind/internal/replica"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
	"nevermind/internal/wal"
)

// The fixture mirrors internal/fleet's: same population, seed and training
// config. The leader and replica daemons load the SAME trained models — that
// is the deployment contract (-model/-locator files or identical training
// flags), and it is what makes follower responses a pure function of the
// replicated store.
var (
	fixtureDS   *data.Dataset
	fixturePred *core.TicketPredictor
	fixtureLoc  *core.TroubleLocator
)

func fixture(t *testing.T) (*data.Dataset, *core.TicketPredictor, *core.TroubleLocator) {
	t.Helper()
	if fixtureDS == nil {
		res, err := sim.Run(sim.DefaultConfig(2000, 11))
		if err != nil {
			t.Fatal(err)
		}
		fixtureDS = res.Dataset

		cfg := core.DefaultPredictorConfig(fixtureDS.NumLines, 11)
		cfg.Rounds = 40
		cfg.MaxSelectExamples = 12000
		pred, err := core.TrainPredictor(fixtureDS, features.WeekRange(32, 38), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fixturePred = pred

		lcfg := core.DefaultLocatorConfig(11)
		lcfg.Rounds = 20
		lcfg.MinCases = 5
		cases := core.CasesFromNotes(fixtureDS, data.FirstSaturday, data.SaturdayOf(40)-1)
		loc, err := core.TrainLocator(fixtureDS, cases, lcfg)
		if err != nil {
			t.Fatal(err)
		}
		fixtureLoc = loc
	}
	return fixtureDS, fixturePred, fixtureLoc
}

// leaderUnderTest is a daemon with durability on and the replication source
// mounted, exactly as nevermindd -wal.dir assembles it.
type leaderUnderTest struct {
	srv *serve.Server
	dur *serve.Durability
	src *replica.Source
	ts  *httptest.Server
}

func newLeader(t *testing.T, pred *core.TicketPredictor, loc *core.TroubleLocator, cfg serve.DurabilityConfig) *leaderUnderTest {
	t.Helper()
	srv, err := serve.New(serve.Config{Predictor: pred, Locator: loc})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Sync == 0 {
		cfg.Sync = wal.SyncNever
	}
	dur, err := serve.OpenDurability(srv.Store(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := replica.NewSource(replica.SourceConfig{
		Dir:         cfg.Dir,
		LastVersion: dur.LogVersion,
	})
	if err != nil {
		t.Fatal(err)
	}
	dur.SetOnAppend(src.Wake)
	dur.SetRetention(src.Retain)
	srv.MountReplication(src.Handler())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); dur.Abandon() })
	return &leaderUnderTest{srv: srv, dur: dur, src: src, ts: ts}
}

// ingestWeek pushes one week of the dataset into the leader's store (which
// logs it to the WAL through the sink): one tests version, one tickets
// version when the week has new tickets.
func ingestWeek(t *testing.T, ds *data.Dataset, st *serve.Store, w int) {
	t.Helper()
	var tests []serve.TestRecord
	for li := 0; li < ds.NumLines; li++ {
		m := ds.At(data.LineID(li), w)
		tests = append(tests, serve.TestRecord{
			Line: m.Line, Week: w, Missing: m.Missing, F: append([]float32(nil), m.F[:]...),
			Profile: ds.ProfileOf[li], DSLAM: ds.DSLAMOf[li], Usage: ds.UsageOf[li],
		})
	}
	if _, err := st.IngestTests(tests); err != nil {
		t.Fatal(err)
	}
	var tickets []serve.TicketRecord
	for _, tk := range ds.Tickets {
		if tk.Day > data.SaturdayOf(w-1) && tk.Day <= data.SaturdayOf(w) {
			tickets = append(tickets, serve.TicketRecord{ID: tk.ID, Line: tk.Line, Day: tk.Day, Category: uint8(tk.Category)})
		}
	}
	if len(tickets) > 0 {
		if _, err := st.IngestTickets(tickets); err != nil {
			t.Fatal(err)
		}
	}
}

// reply is one handler's observable response.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func do(t *testing.T, h http.Handler, method, path string, body []byte) reply {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, "http://host"+path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return reply{status: rec.Code, header: rec.Header(), body: rec.Body.Bytes()}
}

func waitConverged(t *testing.T, fol *replica.Follower, st func() *serve.Store, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for st().Version() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at version %d (leader %d); status %+v",
				st().Version(), want, fol.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaByteIdentity bootstraps a follower mid-stream — after the
// leader has checkpointed and kept ingesting — and requires every read
// endpoint to answer byte-identically to the leader at the same version.
// This is the tentpole contract: a replica at version V IS the leader at
// version V, bit for bit, so the gateway may serve reads from either.
func TestReplicaByteIdentity(t *testing.T) {
	ds, pred, loc := fixture(t)
	leader := newLeader(t, pred, loc, serve.DurabilityConfig{CheckpointEvery: -1, KeepCheckpoints: 2})

	// Phase 1: two weeks land and are checkpointed before the follower is
	// born — the bootstrap must come from the checkpoint, not a full replay.
	ingestWeek(t, ds, leader.srv.Store(), 40)
	ingestWeek(t, ds, leader.srv.Store(), 41)
	leader.dur.Checkpoint()

	var fol *replica.Follower
	fsrv, err := serve.New(serve.Config{
		Predictor: pred,
		Locator:   loc,
		ReadOnly:  true,
		ReplicaStatus: func() serve.ReplicaStatus {
			if fol == nil {
				return serve.ReplicaStatus{}
			}
			return fol.Status()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fol, err = replica.NewFollower(replica.FollowerConfig{
		Leader:    leader.ts.URL,
		ID:        "identity-test",
		Shards:    4, // deliberately different from the leader's shard count
		SwapStore: fsrv.SwapStore,
		PollWait:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.Bootstrap(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got, want := fsrv.Store().Version(), leader.srv.Store().Version(); got != want {
		t.Fatalf("bootstrap stopped at version %d, leader at %d", got, want)
	}

	// Phase 2: the leader keeps ingesting while the follower tails live.
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	runDone := make(chan struct{})
	go func() { defer close(runDone); fol.Run(ctx) }()
	ingestWeek(t, ds, leader.srv.Store(), 42)
	ingestWeek(t, ds, leader.srv.Store(), 43)
	waitConverged(t, fol, fsrv.Store, leader.srv.Store().Version())

	// Every read endpoint answers byte-for-byte as the leader does.
	var scoreBody strings.Builder
	scoreBody.WriteString(`{"examples":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			scoreBody.WriteByte(',')
		}
		fmt.Fprintf(&scoreBody, `{"line":%d,"week":43}`, (i*31)%ds.NumLines)
	}
	scoreBody.WriteString(`]}`)
	checks := []struct {
		name, method, path string
		body               []byte
	}{
		{"score", http.MethodPost, "/v1/score", []byte(scoreBody.String())},
		{"rank", http.MethodGet, "/v1/rank?week=43&n=32", nil},
		{"rank-default", http.MethodGet, "/v1/rank", nil},
	}
	for _, c := range checks {
		l := do(t, leader.srv.Handler(), c.method, c.path, c.body)
		f := do(t, fsrv.Handler(), c.method, c.path, c.body)
		if l.status != f.status || !bytes.Equal(l.body, f.body) {
			t.Fatalf("%s diverged:\n  leader:  %d %.300s\n  replica: %d %.300s",
				c.name, l.status, l.body, f.status, f.body)
		}
		if c.name == "score" {
			if got := f.header.Get("X-Replica-Lag"); got != "0" {
				t.Fatalf("replica score X-Replica-Lag = %q, want \"0\"", got)
			}
			if got := l.header.Get("X-Replica-Lag"); got != "" {
				t.Fatalf("leader emitted X-Replica-Lag %q", got)
			}
		}
	}

	// Locate for the top-ranked line: take it from the (identical) rank body.
	rank := do(t, leader.srv.Handler(), http.MethodGet, "/v1/rank?week=43&n=1", nil)
	var top struct {
		Predictions []struct {
			Line data.LineID `json:"line"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(rank.body, &top); err != nil || len(top.Predictions) == 0 {
		t.Fatalf("rank body undecodable: %v %.200s", err, rank.body)
	}
	locBody := fmt.Appendf(nil, `{"line":%d,"week":43,"model":"combined"}`, top.Predictions[0].Line)
	l := do(t, leader.srv.Handler(), http.MethodPost, "/v1/locate", locBody)
	f := do(t, fsrv.Handler(), http.MethodPost, "/v1/locate", locBody)
	if l.status != f.status || !bytes.Equal(l.body, f.body) {
		t.Fatalf("locate diverged:\n  leader:  %d %.300s\n  replica: %d %.300s",
			l.status, l.body, f.status, f.body)
	}

	// The follower is read-only: ingest is refused, and the refusal names
	// the leader as the write path.
	ing := do(t, fsrv.Handler(), http.MethodPost, "/v1/ingest", []byte(`{"tests":[{"line":1,"week":43}]}`))
	if ing.status != http.StatusForbidden || !bytes.Contains(ing.body, []byte("read-only")) {
		t.Fatalf("replica ingest: %d %.200s, want 403 read-only", ing.status, ing.body)
	}
	if got := fol.Bootstraps(); got != 1 {
		t.Fatalf("follower bootstrapped %d times, want 1", got)
	}

	// Healthz carries the replica fields the gateway's lag gating reads.
	hz := do(t, fsrv.Handler(), http.MethodGet, "/healthz", nil)
	for _, want := range []string{`"replica":true`, `"replica_lag":0`, `"replica_applied":`} {
		if !bytes.Contains(hz.body, []byte(want)) {
			t.Fatalf("replica healthz missing %s: %.300s", want, hz.body)
		}
	}
}

// TestSourceGoneAndRetention pins the catch-up protocol's edges without
// models: a follower position the WAL no longer reaches gets 410 Gone, an
// active follower's retention claim holds truncation back, and an expired
// claim releases it.
func TestSourceGoneAndRetention(t *testing.T) {
	dir := t.TempDir()
	st := serve.NewStore(2)
	dur, err := serve.OpenDurability(st, nil, serve.DurabilityConfig{
		Dir: dir, Sync: wal.SyncNever,
		CheckpointEvery: -1, SegmentBytes: 2 << 10, KeepCheckpoints: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Abandon()
	src, err := replica.NewSource(replica.SourceConfig{
		Dir:          dir,
		LastVersion:  dur.LogVersion,
		RetentionTTL: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dur.SetOnAppend(src.Wake)
	dur.SetRetention(src.Retain)
	h := src.Handler()

	ingest := func(n int) {
		for i := 0; i < n; i++ {
			v := int(st.Version())
			recs := make([]serve.TestRecord, 8)
			for j := range recs {
				recs[j] = serve.TestRecord{
					Line: data.LineID((v*8 + j) % 300), Week: 40 + v%4,
					F: make([]float32, data.NumBasicFeatures),
				}
			}
			if _, err := st.IngestTests(recs); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A fresh stream from 0 with a live claim: works, and the claim pins
	// the WAL while it is fresh.
	ingest(6)
	r := do(t, h, http.MethodGet, "/v1/repl/wal?from=0&id=slow", nil)
	if r.status != http.StatusOK {
		t.Fatalf("stream from 0: %d %.200s", r.status, r.body)
	}
	if floor, ok := src.Retain(); !ok || floor != 0 {
		t.Fatalf("Retain() = (%d, %v), want (0, true)", floor, ok)
	}

	// Past the tail is Gone: a follower ahead of this leader's durable log
	// can only be resolved by a checkpoint.
	r = do(t, h, http.MethodGet, "/v1/repl/wal?from=999", nil)
	if r.status != http.StatusGone {
		t.Fatalf("stream past tail: %d, want 410", r.status)
	}

	// Let the claim lapse, checkpoint (which truncates), and the follower's
	// old position is gone — it must re-bootstrap.
	time.Sleep(80 * time.Millisecond)
	if _, ok := src.Retain(); ok {
		t.Fatal("lapsed claim still retained")
	}
	ingest(20)
	dur.Checkpoint()
	probe := errors.New("probe")
	opened := false
	for i := 0; i < 40 && !opened; i++ {
		_, err := wal.Replay(dir, 0, func(*wal.Record) error { return probe })
		if opened = errors.Is(err, wal.ErrReplayGap); !opened {
			ingest(6)
			dur.Checkpoint()
		}
	}
	if !opened {
		t.Fatal("truncation never opened a replay gap; segment sizing changed")
	}
	r = do(t, h, http.MethodGet, "/v1/repl/wal?from=0&id=slow", nil)
	if r.status != http.StatusGone {
		t.Fatalf("stream from pruned position: %d %.200s, want 410", r.status, r.body)
	}

	// The checkpoint endpoint serves the newest checkpoint with its version.
	r = do(t, h, http.MethodGet, "/v1/repl/checkpoint", nil)
	if r.status != http.StatusOK {
		t.Fatalf("checkpoint: %d %.200s", r.status, r.body)
	}
	v, err := serve.NewStore(2).ReadCheckpoint(bytes.NewReader(r.body))
	if err != nil {
		t.Fatalf("served checkpoint undecodable: %v", err)
	}
	if got := r.header.Get("X-Checkpoint-Version"); got != fmt.Sprint(v) {
		t.Fatalf("X-Checkpoint-Version %q, checkpoint says %d", got, v)
	}
	if v != st.Version() {
		t.Fatalf("checkpoint version %d, store at %d", v, st.Version())
	}
}

// TestFollowerRebootstrapOn410 drives the full lapse cycle through the
// Follower: bootstrap, fall far behind while the leader prunes, then observe
// the 410 → fresh-store re-bootstrap → converge path, with the swap visible
// as an atomic store replacement (never a torn intermediate).
func TestFollowerRebootstrapOn410(t *testing.T) {
	dir := t.TempDir()
	st := serve.NewStore(2)
	dur, err := serve.OpenDurability(st, nil, serve.DurabilityConfig{
		Dir: dir, Sync: wal.SyncNever,
		CheckpointEvery: -1, SegmentBytes: 2 << 10, KeepCheckpoints: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Abandon()
	src, err := replica.NewSource(replica.SourceConfig{
		Dir: dir, LastVersion: dur.LogVersion, RetentionTTL: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dur.SetOnAppend(src.Wake)
	dur.SetRetention(src.Retain)
	ts := httptest.NewServer(src.Handler())
	defer ts.Close()

	ingest := func(n int) {
		for i := 0; i < n; i++ {
			v := int(st.Version())
			recs := make([]serve.TestRecord, 8)
			for j := range recs {
				recs[j] = serve.TestRecord{
					Line: data.LineID((v*8 + j) % 300), Week: 40 + v%4,
					F: make([]float32, data.NumBasicFeatures),
				}
			}
			if _, err := st.IngestTests(recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(8)
	dur.Checkpoint()

	var published atomic.Pointer[serve.Store]
	fol, err := replica.NewFollower(replica.FollowerConfig{
		Leader: ts.URL, ID: "lapser", Shards: 2,
		SwapStore: published.Store,
		PollWait:  20 * time.Millisecond,
		RetryBase: time.Millisecond, RetryMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.Bootstrap(t.Context()); err != nil {
		t.Fatal(err)
	}
	v0 := published.Load().Version()

	// While the follower sleeps, its claim lapses and the leader prunes
	// past it: keep ingesting + checkpointing until the probe sees a gap.
	time.Sleep(60 * time.Millisecond)
	probe := errors.New("probe")
	opened := false
	for i := 0; i < 40 && !opened; i++ {
		ingest(6)
		dur.Checkpoint()
		_, err := wal.Replay(dir, v0, func(*wal.Record) error { return probe })
		opened = errors.Is(err, wal.ErrReplayGap)
	}
	if !opened {
		t.Fatal("could not open a replay gap past the follower's position")
	}

	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); fol.Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for fol.Status().Applied != st.Version() || fol.Bootstraps() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no re-bootstrap convergence: status %+v bootstraps %d leader %d",
				fol.Status(), fol.Bootstraps(), st.Version())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	if got := published.Load().Version(); got != st.Version() {
		t.Fatalf("published store at %d, leader at %d", got, st.Version())
	}
	if got := fol.Bootstraps(); got < 2 {
		t.Fatalf("bootstraps = %d, want >= 2 (initial + 410-triggered)", got)
	}
}
