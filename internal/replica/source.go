// Package replica implements leader→follower replication for the serving
// store. The leader side (Source) serves the durability directory read-only:
// a follower bootstraps from the newest checkpoint (GET /v1/repl/checkpoint),
// then streams the WAL tail and live appends (GET /v1/repl/wal?from=V,
// long-polled) in the exact segment record format, applying each record
// through Store.ApplyWALRecord — so a follower at version V is bit-identical
// to the leader at version V. The follower side (Follower) owns bootstrap,
// the tail loop, and re-bootstrap when the leader has pruned past it.
package replica

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nevermind/internal/obs"
	"nevermind/internal/wal"
)

// SourceConfig assembles the leader-side replication server.
type SourceConfig struct {
	// Dir is the durability directory (WAL segments + checkpoints) to serve.
	Dir string
	// LastVersion returns the durable log tail — how far a stream may read.
	// Serving only durable versions keeps a follower from ever being ahead
	// of what the leader would recover to after a crash.
	LastVersion func() uint64
	// RetentionTTL expires a follower's retention claim this long after its
	// last stream request; an expired follower re-bootstraps instead of
	// pinning WAL segments forever. Default 5m.
	RetentionTTL time.Duration
	// MaxWait caps a stream request's long-poll wait. Default 30s.
	MaxWait time.Duration
	// MaxStreamRecords caps records per stream response; a bootstrapping
	// follower just polls again from its new position. Default 4096.
	MaxStreamRecords int
	// Reg, when non-nil, registers the leader-side replication metrics.
	Reg *obs.Registry
}

// followerPos is one follower's retention claim: the version its last stream
// request started from, and when it was seen.
type followerPos struct {
	from uint64
	seen time.Time
}

// Source serves checkpoints and WAL streams off a leader's durability
// directory. All reads are read-only and tolerate racing the checkpoint
// pruner: a segment vanishing mid-stream just ends the response at a frame
// boundary, and a follower that lost the race to truncation gets 410 Gone
// and re-bootstraps.
type Source struct {
	cfg SourceConfig

	mu        sync.Mutex
	followers map[string]followerPos
	wake      chan struct{}

	streams    atomic.Uint64
	streamRecs atomic.Uint64
	ckpts      atomic.Uint64
	gone       atomic.Uint64
}

// NewSource builds a Source over a durability directory.
func NewSource(cfg SourceConfig) (*Source, error) {
	if cfg.Dir == "" {
		return nil, errors.New("replica: source needs a durability directory")
	}
	if cfg.LastVersion == nil {
		return nil, errors.New("replica: source needs a LastVersion func")
	}
	if cfg.RetentionTTL <= 0 {
		cfg.RetentionTTL = 5 * time.Minute
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 30 * time.Second
	}
	if cfg.MaxStreamRecords <= 0 {
		cfg.MaxStreamRecords = 4096
	}
	s := &Source{
		cfg:       cfg,
		followers: make(map[string]followerPos),
		wake:      make(chan struct{}),
	}
	if cfg.Reg != nil {
		s.register(cfg.Reg)
	}
	return s, nil
}

// Handler returns the replication endpoints, mounted by the serve layer
// under /v1/repl/ (serve.Server.MountReplication).
func (s *Source) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/repl/wal", s.handleWAL)
	return mux
}

// Wake notifies blocked long-poll streams that the durable tail advanced.
// Wired to Durability.SetOnAppend.
func (s *Source) Wake(version uint64) {
	s.mu.Lock()
	close(s.wake)
	s.wake = make(chan struct{})
	s.mu.Unlock()
}

// wakeCh returns the channel the next Wake will close.
func (s *Source) wakeCh() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wake
}

// Retain is the durability retention hook: the lowest version an active
// (seen within RetentionTTL) follower last streamed from, ok=false when no
// follower is active. Records at or below the floor are safe to truncate.
func (s *Source) Retain() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := time.Now().Add(-s.cfg.RetentionTTL)
	var floor uint64
	ok := false
	for id, fp := range s.followers {
		if fp.seen.Before(cutoff) {
			delete(s.followers, id)
			continue
		}
		if !ok || fp.from < floor {
			floor, ok = fp.from, true
		}
	}
	return floor, ok
}

// observe records a follower's stream position for Retain.
func (s *Source) observe(id string, from uint64) {
	if id == "" {
		return
	}
	s.mu.Lock()
	s.followers[id] = followerPos{from: from, seen: time.Now()}
	s.mu.Unlock()
}

// activeFollowers counts followers seen within the TTL.
func (s *Source) activeFollowers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := time.Now().Add(-s.cfg.RetentionTTL)
	n := 0
	for _, fp := range s.followers {
		if !fp.seen.Before(cutoff) {
			n++
		}
	}
	return n
}

// handleCheckpoint serves the newest checkpoint file verbatim (the follower
// loads it with Store.ReadCheckpoint). ?before=V skips checkpoints at or
// past V — the walk-back a follower uses when the newest one fails to
// decode. 404 when none qualify: the follower then streams from version 0.
func (s *Source) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	var before uint64
	if v := r.URL.Query().Get("before"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad before %q", v))
			return
		}
		before = n
	}
	cks, err := wal.Checkpoints(s.cfg.Dir)
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	for i := len(cks) - 1; i >= 0; i-- {
		if before != 0 && cks[i].Version >= before {
			continue
		}
		f, err := openCheckpoint(cks[i].Path)
		if err != nil {
			continue // pruned underneath us; fall back to an older one
		}
		s.ckpts.Add(1)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Checkpoint-Version", strconv.FormatUint(cks[i].Version, 10))
		serveFile(w, f)
		return
	}
	writeJSONError(w, http.StatusNotFound, "no checkpoint available")
}

// handleWAL streams WAL records with versions in (from, tail]. With nothing
// past from it long-polls up to min(wait, MaxWait) for an append, then
// answers an empty stream (header only). 410 Gone means the chain no longer
// reaches from — the follower must re-bootstrap from a checkpoint.
func (s *Source) handleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad from %q", q.Get("from")))
		return
	}
	var maxWait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad wait %q", v))
			return
		}
		maxWait = min(d, s.cfg.MaxWait)
	}
	s.observe(q.Get("id"), from)
	s.streams.Add(1)

	tail := s.cfg.LastVersion()
	if tail < from {
		// The follower is ahead of anything this leader can durably serve —
		// a different (or reset) history. Only a checkpoint can resolve it.
		s.gone.Add(1)
		writeJSONError(w, http.StatusGone, fmt.Sprintf("follower at %d is ahead of the log tail %d", from, tail))
		return
	}
	if tail == from && maxWait > 0 {
		timer := time.NewTimer(maxWait)
		defer timer.Stop()
	poll:
		for {
			ch := s.wakeCh()
			if tail = s.cfg.LastVersion(); tail > from {
				break
			}
			select {
			case <-ch:
			case <-timer.C:
				break poll
			case <-r.Context().Done():
				return
			}
		}
	}

	// Stream lazily: the header is only written once the first record is in
	// hand, so a replay gap can still answer 410 instead of a torn 200.
	var sw *wal.StreamWriter
	errStreamFull := errors.New("stream record cap reached")
	sent := 0
	start := func() error {
		if sw != nil {
			return nil
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Leader-Version", strconv.FormatUint(tail, 10))
		var err error
		sw, err = wal.NewStreamWriter(w, tail)
		return err
	}
	_, rerr := wal.Replay(s.cfg.Dir, from, func(rec *wal.Record) error {
		if rec.Version > tail {
			return errStreamFull // never ship past the durable tail
		}
		if sent >= s.cfg.MaxStreamRecords {
			return errStreamFull
		}
		if err := start(); err != nil {
			return err
		}
		if err := sw.WriteRecord(rec); err != nil {
			return err
		}
		sent++
		return nil
	})
	if sw == nil {
		if rerr != nil && errors.Is(rerr, wal.ErrReplayGap) {
			s.gone.Add(1)
			writeJSONError(w, http.StatusGone, rerr.Error())
			return
		}
		if err := start(); err != nil {
			return // client went away; nothing to salvage
		}
	}
	// Any other mid-stream error (truncation race, client gone) just ends
	// the response at a frame boundary; the follower re-polls from its new
	// applied version.
	s.streamRecs.Add(uint64(sent))
}

func (s *Source) register(reg *obs.Registry) {
	reg.CounterFunc("nevermind_repl_streams_total",
		"WAL stream requests served to followers.",
		func() float64 { return float64(s.streams.Load()) })
	reg.CounterFunc("nevermind_repl_stream_records_total",
		"WAL records shipped to followers.",
		func() float64 { return float64(s.streamRecs.Load()) })
	reg.CounterFunc("nevermind_repl_checkpoints_served_total",
		"Checkpoint downloads served to bootstrapping followers.",
		func() float64 { return float64(s.ckpts.Load()) })
	reg.CounterFunc("nevermind_repl_gone_total",
		"Stream requests answered 410 Gone (follower must re-bootstrap).",
		func() float64 { return float64(s.gone.Load()) })
	reg.GaugeFunc("nevermind_repl_followers",
		"Followers seen within the retention TTL.",
		func() float64 { return float64(s.activeFollowers()) })
}

// openCheckpoint opens a checkpoint file for verbatim serving; the caller
// falls back to an older checkpoint when the newest vanished under us.
func openCheckpoint(path string) (*os.File, error) {
	return os.Open(path)
}

// serveFile copies the file to the response and closes it. A copy error
// means the client went away or the file was truncated mid-read; the
// follower's load (Store.ReadCheckpoint) catches either: a frame CRC or
// the missing end frame.
func serveFile(w http.ResponseWriter, f *os.File) {
	defer f.Close()
	_, _ = io.Copy(w, f)
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{%q:%q}\n", "error", msg)
}
