package serve

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/obs"
	"nevermind/internal/wal"
)

// DurabilityConfig tunes the write-ahead log + checkpoint manager. Dir is
// required; everything else has serviceable defaults.
type DurabilityConfig struct {
	// Dir holds the WAL segments and checkpoint files.
	Dir string
	// Sync is the fsync policy for WAL appends (-wal.fsync).
	Sync wal.SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval.
	SyncEvery time.Duration
	// SegmentBytes rotates WAL segments at this size. Default 64 MB.
	SegmentBytes int64
	// CheckpointEvery writes a checkpoint once the store is this many
	// versions past the last one. Default 256; <0 disables version-driven
	// checkpoints.
	CheckpointEvery int64
	// CheckpointInterval also checkpoints on a timer when versions moved at
	// all since the last one. 0 disables the timer.
	CheckpointInterval time.Duration
	// KeepCheckpoints retains this many checkpoint files; the WAL is only
	// truncated through the OLDEST retained one, so a corrupt newest
	// checkpoint still recovers from an older one plus the log. Default 2.
	KeepCheckpoints int
	// NoFinalCheckpoint skips the checkpoint Close normally writes — for
	// benchmarks that must leave the directory byte-stable across runs.
	NoFinalCheckpoint bool
}

func (c *DurabilityConfig) fill() {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 256
	}
	if c.KeepCheckpoints <= 0 {
		c.KeepCheckpoints = 2
	}
}

// RecoveryStats reports what OpenDurability found on disk and how the store
// was rebuilt from it.
type RecoveryStats struct {
	// CheckpointVersion is the version of the checkpoint loaded, 0 if the
	// store started from scratch.
	CheckpointVersion uint64
	// SkippedCheckpoints counts newer checkpoint files that failed to load
	// (corrupt or torn) before one succeeded.
	SkippedCheckpoints int
	// ReplayedRecords is the number of WAL records applied past the
	// checkpoint.
	ReplayedRecords int
	// TruncatedBytes/DroppedSegments echo the WAL repair (torn tails cut,
	// unreachable segments removed).
	TruncatedBytes  int64
	DroppedSegments int
	// Version is the store version recovery reached.
	Version uint64
	// Duration is wall-clock recovery time: checkpoint load + repair +
	// replay.
	Duration time.Duration
}

// Durability runs the store's write-ahead log and checkpoint loop: it
// recovers the store from disk at open, logs every ingest batch before the
// caller sees the ack (ordering guaranteed by the store's version lock),
// and periodically checkpoints + prunes so recovery stays fast and the log
// stays bounded.
//
// Failure contract: if a WAL append fails (disk full, I/O error), the log
// freezes — no later batch can be logged past a hole — and serving
// continues in memory with wal_append_failures_total climbing. Checkpoints
// keep running, so the durable loss window stays bounded by the checkpoint
// cadence; a restart heals the log.
type Durability struct {
	store *Store
	log   *wal.Log
	cfg   DurabilityConfig

	recovery RecoveryStats

	lastCkpt       atomic.Uint64 // version of newest durable checkpoint
	records        atomic.Uint64 // WAL records appended this process
	appendFailures atomic.Uint64
	ckptTotal      atomic.Uint64
	ckptFailures   atomic.Uint64

	ckptDur  *obs.Histogram // nil when metrics are off
	fsyncDur *obs.Histogram

	// retention, when set, is the replication source's floor: checkpoint
	// pruning never truncates WAL segments past min(oldest kept checkpoint,
	// floor), so an active follower's next stream request stays answerable.
	retention atomic.Pointer[func() (uint64, bool)]
	// onAppend, when set, is called (outside locks) after every durable
	// append — the wake-up for long-polled replication streams.
	onAppend atomic.Pointer[func(version uint64)]

	kick     chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup
	closeOne sync.Once
}

// SetRetention installs the replication retention hook: fn returns the
// lowest version an active follower still needs records after, and whether
// any follower is active at all. Safe to call at any time.
func (d *Durability) SetRetention(fn func() (uint64, bool)) {
	if fn == nil {
		d.retention.Store(nil)
		return
	}
	d.retention.Store(&fn)
}

// SetOnAppend installs a post-append observer (the replication source's
// stream wake-up). Safe to call at any time; nil removes it.
func (d *Durability) SetOnAppend(fn func(version uint64)) {
	if fn == nil {
		d.onAppend.Store(nil)
		return
	}
	d.onAppend.Store(&fn)
}

// LogVersion returns the version of the last durably appended WAL record —
// the position a replication stream can serve records up to.
func (d *Durability) LogVersion() uint64 { return d.log.LastVersion() }

// Dir returns the durability directory the WAL and checkpoints live in.
func (d *Durability) Dir() string { return d.cfg.Dir }

// OpenDurability recovers store from cfg.Dir (newest loadable checkpoint +
// contiguous WAL tail), installs the WAL sink so every later ingest is
// logged, and starts the checkpoint loop. The store must be empty. When reg
// is non-nil the durability metric family is registered on it — only then,
// so a daemon without -wal.dir exposes exactly the PR 7 metric set.
func OpenDurability(store *Store, reg *obs.Registry, cfg DurabilityConfig) (*Durability, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: durability needs a directory")
	}
	cfg.fill()
	d := &Durability{
		store: store,
		cfg:   cfg,
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	t0 := time.Now()

	// Load the newest checkpoint that loads cleanly; fall back one by one
	// (a crash mid-checkpoint leaves at most a .tmp husk, but a corrupt
	// final file must not strand the whole history). A failed load leaves
	// the store empty for the next attempt.
	cks, err := wal.Checkpoints(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for i := len(cks) - 1; i >= 0; i-- {
		v, err := store.LoadCheckpoint(cks[i].Path)
		if err != nil {
			log.Printf("serve: durability: skipping checkpoint %s: %v", cks[i].Path, err)
			d.recovery.SkippedCheckpoints++
			continue
		}
		d.recovery.CheckpointVersion = v
		break
	}

	// Replay the WAL tail past the checkpoint, then open the log for
	// appends (Open repairs torn tails first, so replay sees a clean chain).
	walOpts := wal.Options{
		SegmentBytes:  cfg.SegmentBytes,
		Sync:          cfg.Sync,
		SyncEvery:     cfg.SyncEvery,
		FsyncObserver: d.observeFsync,
	}
	l, repair, err := wal.Open(cfg.Dir, walOpts)
	if err != nil {
		return nil, err
	}
	d.log = l
	d.recovery.TruncatedBytes = repair.TruncatedBytes
	d.recovery.DroppedSegments = repair.DroppedSegments
	base := d.recovery.CheckpointVersion
	if base >= repair.LastVersion {
		// Every surviving record is covered by the checkpoint (or the log
		// is empty): clear it so the next append continues at base+1.
		if err := l.Reset(base); err != nil {
			l.Close()
			return nil, err
		}
	} else {
		n, err := wal.Replay(cfg.Dir, base, store.ApplyWALRecord)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("serve: wal replay: %w", err)
		}
		d.recovery.ReplayedRecords = n
	}
	d.recovery.Version = store.Version()
	d.lastCkpt.Store(base)
	d.recovery.Duration = time.Since(t0)

	if reg != nil {
		d.register(reg)
	}
	store.SetWALSink(d.sink)

	d.wg.Add(1)
	go d.checkpointLoop()
	return d, nil
}

// Recovery returns what OpenDurability found and rebuilt.
func (d *Durability) Recovery() RecoveryStats { return d.recovery }

// LastCheckpointVersion returns the version of the newest durable checkpoint.
func (d *Durability) LastCheckpointVersion() uint64 { return d.lastCkpt.Load() }

func (d *Durability) observeFsync(dur time.Duration) {
	if d.fsyncDur != nil {
		d.fsyncDur.Observe(dur)
	}
}

// sink is the store's WAL hook: invoked under walMu for every version
// bump, so appends arrive in exact version order.
func (d *Durability) sink(version uint64, tests []TestRecord, tickets []data.Ticket) {
	rec := &wal.Record{Version: version}
	if len(tests) > 0 {
		rec.Op = wal.OpTests
		rec.Tests = make([]wal.TestRec, len(tests))
		for i, t := range tests {
			rec.Tests[i] = wal.TestRec{
				Line: t.Line, Week: t.Week, Missing: t.Missing,
				Profile: t.Profile, DSLAM: t.DSLAM, Usage: t.Usage, F: t.F,
			}
		}
	} else {
		rec.Op = wal.OpTickets
		rec.Tickets = tickets
	}
	if err := d.log.Append(rec); err != nil {
		if d.appendFailures.Add(1) == 1 {
			log.Printf("serve: durability: WAL append failed, log frozen until restart: %v", err)
		}
		return
	}
	d.records.Add(1)
	if fn := d.onAppend.Load(); fn != nil {
		(*fn)(version)
	}
	if d.cfg.CheckpointEvery > 0 && version-d.lastCkpt.Load() >= uint64(d.cfg.CheckpointEvery) {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
}

func (d *Durability) checkpointLoop() {
	defer d.wg.Done()
	var tick <-chan time.Time
	if d.cfg.CheckpointInterval > 0 {
		t := time.NewTicker(d.cfg.CheckpointInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-d.done:
			return
		case <-d.kick:
			// A kick can be queued while a checkpoint runs (the sink measures
			// against the previous one), so re-check the cadence against
			// the checkpoint now on disk.
			if d.store.Version()-d.lastCkpt.Load() >= uint64(d.cfg.CheckpointEvery) {
				d.checkpoint()
			}
		case <-tick:
			if d.store.Version() > d.lastCkpt.Load() {
				d.checkpoint()
			}
		}
	}
}

// checkpoint streams the store into a new checkpoint when it has moved past
// the last one, prunes old ones, and truncates WAL segments covered by the
// OLDEST retained checkpoint (so losing the newest file never loses
// history).
func (d *Durability) checkpoint() {
	t0 := time.Now()
	v, err := d.store.WriteCheckpoint(d.cfg.Dir, d.lastCkpt.Load())
	if err != nil {
		d.ckptFailures.Add(1)
		log.Printf("serve: durability: checkpoint failed: %v", err)
		return
	}
	if v == 0 {
		return
	}
	d.ckptTotal.Add(1)
	d.lastCkpt.Store(v)
	if d.ckptDur != nil {
		d.ckptDur.Observe(time.Since(t0))
	}
	kept, err := wal.PruneCheckpoints(d.cfg.Dir, d.cfg.KeepCheckpoints)
	if err != nil {
		log.Printf("serve: durability: prune checkpoints: %v", err)
		return
	}
	if len(kept) > 0 {
		bound := kept[0].Version
		// Retention handshake: keep segments an active follower still needs.
		// A follower that lapses past its TTL loses the floor, hits a replay
		// gap on its next stream request, and re-bootstraps from a checkpoint
		// — bounded disk either way.
		if fn := d.retention.Load(); fn != nil {
			if floor, ok := (*fn)(); ok && floor < bound {
				bound = floor
			}
		}
		if _, err := d.log.TruncateThrough(bound); err != nil {
			log.Printf("serve: durability: truncate wal: %v", err)
		}
	}
}

// Checkpoint forces a synchronous checkpoint at the store's current version.
// Used by restart tests and operators who want a durable cut before a planned
// shutdown; with the version-driven cadence on (CheckpointEvery > 0) the
// background loop owns checkpointing and callers should not race it.
func (d *Durability) Checkpoint() { d.checkpoint() }

// Close stops the checkpoint loop, writes a final checkpoint (unless
// configured off), and closes the log cleanly.
func (d *Durability) Close() error {
	var err error
	d.closeOne.Do(func() {
		close(d.done)
		d.wg.Wait()
		d.store.SetWALSink(nil)
		if !d.cfg.NoFinalCheckpoint && d.store.Version() > d.lastCkpt.Load() {
			d.checkpoint()
		}
		err = d.log.Close()
	})
	return err
}

// Abandon stops the manager WITHOUT syncing or checkpointing — the
// crash-simulation close for restart tests: whatever the OS flushed is what
// recovery gets.
func (d *Durability) Abandon() {
	d.closeOne.Do(func() {
		close(d.done)
		d.wg.Wait()
		d.store.SetWALSink(nil)
		d.log.Abort()
	})
}

// register exposes the durability metric family. Called only when a
// registry is supplied, so daemons without -wal.dir keep the exact PR 7
// exposition (the /metrics golden test pins it).
func (d *Durability) register(reg *obs.Registry) {
	reg.CounterFunc("nevermind_wal_records_total",
		"Ingest batches appended to the write-ahead log.",
		func() float64 { return float64(d.records.Load()) })
	reg.CounterFunc("nevermind_wal_append_failures_total",
		"Ingest batches that failed to log (the WAL freezes at the first failure).",
		func() float64 { return float64(d.appendFailures.Load()) })
	reg.GaugeFunc("nevermind_wal_segments",
		"Segment files in the write-ahead log directory.",
		func() float64 { return float64(len(d.log.Segments())) })
	reg.GaugeFunc("nevermind_wal_last_version",
		"Store version of the last record appended to the WAL.",
		func() float64 { return float64(d.log.LastVersion()) })
	reg.GaugeFunc("nevermind_wal_lag_records",
		"Store versions not yet covered by a checkpoint (replay length after a crash).",
		func() float64 { return float64(d.store.Version() - d.lastCkpt.Load()) })
	d.fsyncDur = reg.Histogram("nevermind_wal_fsync_duration_seconds",
		"WAL fsync time.", nil)
	d.ckptDur = reg.Histogram("nevermind_checkpoint_duration_seconds",
		"Checkpoint write time.", nil)
	reg.CounterFunc("nevermind_checkpoints_total",
		"Checkpoints written successfully.",
		func() float64 { return float64(d.ckptTotal.Load()) })
	reg.CounterFunc("nevermind_checkpoint_failures_total",
		"Checkpoint attempts that failed.",
		func() float64 { return float64(d.ckptFailures.Load()) })
	reg.GaugeFunc("nevermind_checkpoint_last_version",
		"Store version of the newest durable checkpoint.",
		func() float64 { return float64(d.lastCkpt.Load()) })
	reg.GaugeFunc("nevermind_recovery_duration_seconds",
		"Wall-clock time startup recovery took (checkpoint load + WAL replay).",
		d.recovery.Duration.Seconds)
	reg.GaugeFunc("nevermind_recovery_replayed_records",
		"WAL records replayed past the checkpoint at startup.",
		func() float64 { return float64(d.recovery.ReplayedRecords) })
}
