package main

import (
	"os"
	"path/filepath"
)

// Prometheus series the per-layer metrics read from the daemons' /metrics.
const (
	mHTTP       = "nevermind_http_request_duration_seconds"
	mScoreRows  = "nevermind_ml_score_rows_total"
	mDeltaApply = "nevermind_store_snapshot_delta_apply_duration_seconds"
	mBuilds     = "nevermind_store_snapshot_builds_total"
	mContention = "nevermind_store_shard_contention_total"
	mStoreIng   = "nevermind_store_ingest_duration_seconds"
	mCacheHits  = "nevermind_cache_hits_total"
	mCacheMiss  = "nevermind_cache_misses_total"
	mFsync      = "nevermind_wal_fsync_duration_seconds"
	mCkpts      = "nevermind_checkpoints_total"
	mCkptDur    = "nevermind_checkpoint_duration_seconds"
)

// window is what the daemons reported across one measured window.
type window struct {
	before, after []series
	ingests       int   // ingest requests the client sent
	ingestBytes   int64 // their body bytes
	walGrowth     int64 // bytes appended to the daemons' WAL segments
}

// handlerMean is a route's mean handler time across the daemons, in µs,
// and its request count.
func (w *window) handlerMean(route string) (float64, float64) {
	m, n := histMean(w.before, w.after, mHTTP, `route="`+route+`"`)
	return m * 1e6, n
}

// serveLayers sets the daemon-side per-layer metrics: deltas of the
// daemons' own /metrics series over the window.
func (o *outcome) serveLayers(w *window) {
	for _, c := range classes {
		m, _ := w.handlerMean(c)
		o.set("serve.handler_us."+c, "us", m)
	}
	o.set("serve.rows_scored_per_ingest", "count", ratio(delta(w.before, w.after, mScoreRows), float64(w.ingests)))
	m, _ := histMean(w.before, w.after, mDeltaApply, "")
	o.set("serve.snapshot_delta_ms", "ms", m*1e3)
	o.set("serve.snapshot_builds_full", "count", delta(w.before, w.after, mBuilds+`{kind="full"}`))
	o.set("serve.snapshot_builds_delta", "count", delta(w.before, w.after, mBuilds+`{kind="delta"}`))
	waits := 0.0
	for _, op := range []string{"ingest_tests", "ingest_tickets", "snapshot"} {
		waits += delta(w.before, w.after, mContention+`{op="`+op+`"}`)
	}
	o.set("serve.shard_lock_waits", "count", waits)
	m, _ = histMean(w.before, w.after, mStoreIng, `op="ingest_tests"`)
	o.set("serve.store_ingest_ms", "ms", m*1e3)
	hits := delta(w.before, w.after, mCacheHits)
	lookups := hits + delta(w.before, w.after, mCacheMiss)
	o.set("features.cache_hit_frac", "frac", ratio(hits, lookups))
	o.set("features.cache_lookups", "count", lookups)
	m, n := histMean(w.before, w.after, mFsync, "")
	o.set("wal.fsyncs", "count", n)
	o.set("wal.fsync_ms", "ms", m*1e3)
	o.set("wal.bytes_per_ingest_byte", "B/B", ratio(float64(w.walGrowth), float64(w.ingestBytes)))
	o.set("wal.checkpoints", "count", delta(w.before, w.after, mCkpts))
	m, _ = histMean(w.before, w.after, mCkptDur, "")
	o.set("wal.checkpoint_ms", "ms", m*1e3)
}

// walSegments lists the WAL segment sizes under each daemon's WAL directory.
func walSegments(dirs ...string) (map[string]int64, error) {
	out := make(map[string]int64)
	for _, d := range dirs {
		sz, err := dirBytes(d, ".wal")
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		for name, n := range sz {
			out[filepath.Join(d, name)] = n
		}
	}
	return out, nil
}
