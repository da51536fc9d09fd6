package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"sync/atomic"

	"nevermind/internal/obs"
	"nevermind/internal/serve"
	"nevermind/internal/wal"
)

// errGone marks a stream poll the leader answered 410: the WAL chain no
// longer reaches the follower's position, so only a fresh checkpoint
// bootstrap can resume replication.
var errGone = errors.New("replica: leader pruned past our position")

// FollowerConfig assembles a replication follower.
type FollowerConfig struct {
	// Leader is the leader's base URL (e.g. http://host:port).
	Leader string
	// ID names this follower to the leader's retention tracking. Defaults to
	// host-pid.
	ID string
	// Client issues the HTTP requests. Defaults to a dedicated client with no
	// overall timeout (streams long-poll); cancellation rides the context.
	Client *http.Client
	// Shards sizes every store the follower builds (serve.NewStore; <= 0
	// picks the store's default). Snapshots are deterministic regardless of
	// shard count, so the leader's setting need not match.
	Shards int
	// SwapStore installs a fully caught-up store into the serving layer
	// (serve.Server.SwapStore). Called once per (re-)bootstrap; never called
	// with a store that is behind what readers already saw.
	SwapStore func(*serve.Store)
	// PollWait is the long-poll wait requested per stream poll. Default 2s.
	PollWait time.Duration
	// RetryBase/RetryMax bound the backoff between failed polls. Defaults
	// 100ms / 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Sleep is the backoff seam; tests inject a no-op. Defaults to time.Sleep
	// (context-aware).
	Sleep func(context.Context, time.Duration)
	// Reg, when non-nil, registers the follower metrics.
	Reg *obs.Registry
}

// Follower replicates a leader's store: bootstrap from the newest checkpoint,
// then tail the WAL stream, applying records through Store.ApplyWALRecord —
// the same path crash recovery uses, so a follower at version V is
// bit-identical to the leader at version V. When the leader answers 410 Gone
// (its retention pruned past us), the follower rebuilds a fresh store from a
// new checkpoint offline and swaps it in whole: readers never see torn state
// and never go backwards.
type Follower struct {
	cfg    FollowerConfig
	client *http.Client
	walURL string
	ckpURL string

	store *serve.Store // current published apply target; run-loop owned

	applied    atomic.Uint64 // published store version
	leaderV    atomic.Uint64 // leader tail per the last stream header
	connected  atomic.Bool
	bootstraps atomic.Uint64
	appliedRec atomic.Uint64
	corrupt    atomic.Uint64

	fetchDur *obs.Histogram
	applyDur *obs.Histogram
}

// NewFollower validates the config and builds a Follower. Call Bootstrap
// before serving reads, then Run to tail the leader.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	base, err := url.Parse(cfg.Leader)
	if err != nil || base.Scheme == "" || base.Host == "" {
		return nil, fmt.Errorf("replica: bad leader URL %q", cfg.Leader)
	}
	if cfg.SwapStore == nil {
		return nil, errors.New("replica: follower needs a SwapStore func")
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 2 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context, d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		}
	}
	f := &Follower{
		cfg:    cfg,
		client: cfg.Client,
		walURL: base.JoinPath("/v1/repl/wal").String(),
		ckpURL: base.JoinPath("/v1/repl/checkpoint").String(),
	}
	if f.client == nil {
		f.client = &http.Client{}
	}
	if cfg.Reg != nil {
		f.register(cfg.Reg)
	}
	return f, nil
}

// Status reports the follower's replication position for the serving layer
// (X-Replica-Lag header, healthz).
func (f *Follower) Status() serve.ReplicaStatus {
	return serve.ReplicaStatus{
		Applied:       f.applied.Load(),
		LeaderVersion: f.leaderV.Load(),
		Connected:     f.connected.Load(),
	}
}

// Bootstraps counts completed (re-)bootstraps.
func (f *Follower) Bootstraps() uint64 { return f.bootstraps.Load() }

// Bootstrap builds the initial store: fetch the newest checkpoint, restore
// it, catch up to the leader's current tail, then publish via SwapStore.
// Call before accepting read traffic.
func (f *Follower) Bootstrap(ctx context.Context) error {
	st, err := f.buildStore(ctx, 0)
	if err != nil {
		return err
	}
	f.publish(st)
	return nil
}

// Run tails the leader until the context ends, long-polling the WAL stream
// and applying records to the published store. A 410 from the leader
// triggers an in-loop re-bootstrap; transport errors back off and retry.
// Returns the context's error on shutdown.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.cfg.RetryBase
	for {
		if err := ctx.Err(); err != nil {
			f.connected.Store(false)
			return err
		}
		_, err := f.poll(ctx, f.store, f.cfg.PollWait)
		f.applied.Store(f.store.Version())
		switch {
		case err == nil:
			f.connected.Store(true)
			backoff = f.cfg.RetryBase
			continue // pacing comes from the leader-side long poll
		case errors.Is(err, errGone):
			f.connected.Store(false)
			st, berr := f.buildStore(ctx, f.applied.Load())
			if berr == nil {
				f.publish(st)
				f.connected.Store(true)
				backoff = f.cfg.RetryBase
				continue
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			err = berr
			fallthrough
		default:
			f.connected.Store(false)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			f.cfg.Sleep(ctx, backoff)
			backoff = min(backoff*2, f.cfg.RetryMax)
		}
	}
}

// publish installs a caught-up store as the serving store and makes it the
// tail loop's apply target.
func (f *Follower) publish(st *serve.Store) {
	f.store = st
	f.applied.Store(st.Version())
	f.cfg.SwapStore(st)
	f.bootstraps.Add(1)
}

// buildStore produces a fresh store restored from the leader's newest
// checkpoint and caught up at least to floor (the version readers already
// saw; 0 on first bootstrap). The store is private until returned, so a
// half-built state is never observable.
func (f *Follower) buildStore(ctx context.Context, floor uint64) (*serve.Store, error) {
	st := serve.NewStore(f.cfg.Shards)
	if err := f.restore(ctx, st); err != nil {
		return nil, err
	}
	// Catch up past the floor and to the leader tail as of the restore. The
	// checkpoint the restore fetched can predate the floor if the leader
	// checkpoints lazily; streaming the gap closes it.
	for {
		n, err := f.poll(ctx, st, 0)
		if err != nil {
			if errors.Is(err, errGone) {
				// Pruned again mid-catch-up: the next checkpoint is newer by
				// definition, so restart from it.
				st = serve.NewStore(f.cfg.Shards)
				if err := f.restore(ctx, st); err != nil {
					return nil, err
				}
				continue
			}
			return nil, err
		}
		if st.Version() >= floor && st.Version() >= f.leaderV.Load() {
			return st, nil
		}
		if n == 0 {
			if st.Version() < floor {
				return nil, fmt.Errorf("replica: leader tail %d is behind our published version %d", f.leaderV.Load(), floor)
			}
			return st, nil
		}
	}
}

// restore fetches a checkpoint and seats it into the (empty) store. A 404
// means the leader has never checkpointed: start from version 0. A download
// that fails to load (which leaves the store empty) walks back to the
// previous checkpoint (?before=V) rather than failing the bootstrap
// outright.
func (f *Follower) restore(ctx context.Context, st *serve.Store) error {
	var before uint64
	for attempt := 0; attempt < 3; attempt++ {
		u := f.ckpURL
		if before != 0 {
			u += "?before=" + strconv.FormatUint(before, 10)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := f.client.Do(req)
		if err != nil {
			return fmt.Errorf("replica: checkpoint fetch: %w", err)
		}
		if resp.StatusCode == http.StatusNotFound {
			drain(resp)
			return nil // no checkpoint yet; stream from 0
		}
		if resp.StatusCode != http.StatusOK {
			err := fmt.Errorf("replica: checkpoint fetch: %s", respError(resp))
			drain(resp)
			return err
		}
		_, err = st.ReadCheckpoint(resp.Body)
		drain(resp)
		if err != nil {
			f.corrupt.Add(1)
			// Walk back past the advertised version; a torn download of the
			// same file also just retries it when the header is absent.
			if hv, herr := strconv.ParseUint(resp.Header.Get("X-Checkpoint-Version"), 10, 64); herr == nil {
				before = hv
			}
			continue
		}
		if f.fetchDur != nil {
			f.fetchDur.Observe(time.Since(t0))
		}
		return nil
	}
	return errors.New("replica: no decodable checkpoint after 3 attempts")
}

// poll runs one WAL stream request from st's version and applies every
// record it carries. Returns the number applied. A decode error mid-stream
// is not fatal: the prefix already applied is valid (frames are CRC-checked
// and applied in version order), so the next poll resumes from the new
// position — only errGone forces a re-bootstrap.
func (f *Follower) poll(ctx context.Context, st *serve.Store, wait time.Duration) (int, error) {
	q := url.Values{
		"from": {strconv.FormatUint(st.Version(), 10)},
		"id":   {f.cfg.ID},
	}
	if wait > 0 {
		q.Set("wait", wait.String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.walURL+"?"+q.Encode(), nil)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("replica: stream fetch: %w", err)
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return 0, errGone
	default:
		return 0, fmt.Errorf("replica: stream fetch: %s", respError(resp))
	}
	sr, err := wal.NewStreamReader(resp.Body)
	if err != nil {
		f.corrupt.Add(1)
		return 0, fmt.Errorf("replica: stream header: %w", err)
	}
	if lv := sr.LeaderVersion(); lv > f.leaderV.Load() {
		f.leaderV.Store(lv)
	}
	if f.fetchDur != nil {
		f.fetchDur.Observe(time.Since(t0))
	}
	applied := 0
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			// Torn or corrupt tail: count it and resume from the applied
			// prefix on the next poll. Nothing invalid reached the store.
			f.corrupt.Add(1)
			return applied, nil
		}
		a0 := time.Now()
		if err := st.ApplyWALRecord(rec); err != nil {
			// A decodable record that fails validation or contiguity can only
			// mean a diverged leader; re-bootstrap rather than serve a guess.
			return applied, fmt.Errorf("%w (apply: %v)", errGone, err)
		}
		if f.applyDur != nil {
			f.applyDur.Observe(time.Since(a0))
		}
		applied++
		f.appliedRec.Add(1)
	}
}

func (f *Follower) register(reg *obs.Registry) {
	reg.GaugeFunc("nevermind_replica_lag_versions",
		"Ingest versions the follower trails the leader's durable tail.",
		func() float64 { return float64(f.Status().Lag()) })
	reg.CounterFunc("nevermind_replica_applied_total",
		"WAL records applied from the replication stream.",
		func() float64 { return float64(f.appliedRec.Load()) })
	reg.CounterFunc("nevermind_replica_bootstraps_total",
		"Checkpoint bootstraps completed (first boot and 410-triggered).",
		func() float64 { return float64(f.bootstraps.Load()) })
	reg.CounterFunc("nevermind_replica_stream_corrupt_total",
		"Torn or undecodable replication reads (checkpoint or stream).",
		func() float64 { return float64(f.corrupt.Load()) })
	reg.GaugeFunc("nevermind_replica_connected",
		"1 while the last leader poll succeeded, else 0.",
		func() float64 {
			if f.connected.Load() {
				return 1
			}
			return 0
		})
	f.fetchDur = reg.Histogram("nevermind_replica_fetch_duration_seconds",
		"Leader fetch time: checkpoint downloads and stream polls (to first byte).", nil)
	f.applyDur = reg.Histogram("nevermind_replica_apply_duration_seconds",
		"Per-record ApplyWALRecord time on the follower.", nil)
}

// drain consumes and closes a response body so the connection is reusable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// respError summarises a non-200 response for an error message.
func respError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return fmt.Sprintf("%s: %s", resp.Status, string(body))
}
