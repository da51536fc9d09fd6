package serve

import (
	"fmt"
	"io"
	"math/bits"
	"slices"

	"nevermind/internal/data"
	"nevermind/internal/wal"
)

// A checkpoint is the store's full shard state, written by WriteCheckpoint
// and restored by LoadCheckpoint or ReadCheckpoint; the byte format is
// internal/wal's. It is NOT a Snapshot: a snapshot excludes tickets for
// lines with no test record yet, while the shards keep them so those tickets
// surface once the line's first test arrives. A restart must not lose that
// pending set. The latestWeek and maxLine watermarks are not stored: a
// restore derives them from the lines it seats.

// WriteCheckpoint streams the store into a new checkpoint file in dir when
// its version is past after, and returns the version the file captures (0
// when it wrote nothing). The version is read first and every line after
// it, so the file is at least as new as its version: applyTests and
// applyTickets run before bumpVersion, and replaying WAL records past the
// version re-applies idempotently (test cells overwrite per (line, week),
// tickets dedup), which is exactly what recovery does. Lines are read in id
// order, each under its shard's read lock, and no shard lock is held across
// a file write; so no copy of the whole state is ever built.
func (s *Store) WriteCheckpoint(dir string, after uint64) (uint64, error) {
	version := s.version.Load()
	if version <= after {
		return 0, nil
	}
	var ids []data.LineID
	var tickets []data.Ticket
	for i := range s.shards {
		sh := &s.shards[i]
		s.rlockShard(sh, "checkpoint")
		for l := range sh.lines {
			ids = append(ids, l)
		}
		tickets = append(tickets, sh.tickets...)
		sh.mu.RUnlock()
	}
	slices.Sort(ids)
	sortTickets(tickets)

	cw, err := wal.CreateCheckpoint(dir, version)
	if err != nil {
		return 0, err
	}
	defer cw.Abort()
	var cl wal.CheckpointLine
	for _, l := range ids {
		sh := s.shardOf(l)
		s.rlockShard(sh, "checkpoint")
		ls := sh.lines[l]
		cl = wal.CheckpointLine{Line: l, Profile: ls.profile, DSLAM: ls.dslam, Usage: ls.usage, Tests: cl.Tests[:0]}
		for seen := ls.seen; seen != 0; seen &= seen - 1 {
			cl.Tests = append(cl.Tests, *s.grid.At(l, bits.TrailingZeros64(seen)))
		}
		sh.mu.RUnlock()
		if err := cw.Line(&cl); err != nil {
			return 0, err
		}
	}
	for _, t := range tickets {
		if err := cw.Ticket(t); err != nil {
			return 0, err
		}
	}
	if err := cw.Commit(); err != nil {
		return 0, err
	}
	return version, nil
}

// LoadCheckpoint restores the checkpoint file at path into the store, which
// must be empty, and returns the version it captures. On any error the
// store is left empty, so the caller can fall back to an older checkpoint
// on the same store.
func (s *Store) LoadCheckpoint(path string) (uint64, error) {
	return s.restore(func(sink wal.CheckpointSink) (uint64, error) { return wal.LoadCheckpoint(path, sink) })
}

// ReadCheckpoint is LoadCheckpoint for checkpoint bytes read from r (a
// replication follower's download), without the file-name check.
func (s *Store) ReadCheckpoint(r io.Reader) (uint64, error) {
	return s.restore(func(sink wal.CheckpointSink) (uint64, error) { return wal.ReadCheckpoint(r, sink) })
}

// restore runs a checkpoint read into a fresh store and moves its shards
// and grid into s only once the whole file has loaded, so a failed read
// leaves s empty. s has never published a snapshot (it was empty), so its
// first publish derives everything from the restored state.
func (s *Store) restore(read func(wal.CheckpointSink) (uint64, error)) (uint64, error) {
	if s.version.Load() != 0 || s.maxLine.Load() != -1 {
		return 0, fmt.Errorf("serve: checkpoint restore into a non-empty store (version %d)", s.version.Load())
	}
	fresh := NewStore(len(s.shards))
	v, err := read(restorer{fresh})
	if err != nil {
		return 0, err
	}
	s.lockAll("checkpoint")
	for i := range s.shards {
		sh, src := &s.shards[i], &fresh.shards[i]
		sh.lines, sh.tickets, sh.dedup = src.lines, src.tickets, src.dedup
	}
	s.grid, s.owned = fresh.grid, fresh.owned
	s.gridCells.Store(int64(s.grid.HeldCells()))
	s.version.Store(v)
	s.latestWeek.Store(fresh.latestWeek.Load())
	s.maxLine.Store(fresh.maxLine.Load())
	s.unlockAll()
	return v, nil
}

// restorer is the wal.CheckpointSink that seats checkpoint records into a
// private store, widening its grid line by line (lines arrive ascending) and
// deriving its watermarks from the lines. The wal loader has already checked
// order and the data model's ranges, and that each cell names its line; the
// restorer adds the store's own bound on line ids.
type restorer struct{ s *Store }

func (r restorer) Line(l *wal.CheckpointLine) error {
	if l.Line >= MaxLineID {
		return fmt.Errorf("serve: checkpoint line %d outside [0,%d)", l.Line, MaxLineID)
	}
	s := r.s
	s.owned = s.grid.Grow(int(l.Line)+1, s.owned)
	ls := &lineState{profile: l.Profile, dslam: l.DSLAM, usage: l.Usage}
	for _, m := range l.Tests {
		s.grid.SetCOW(s.owned, l.Line, m.Week, m)
		ls.seen |= 1 << m.Week
	}
	s.shardOf(l.Line).lines[l.Line] = ls
	s.latestWeek.Store(max(s.latestWeek.Load(), int64(l.Tests[len(l.Tests)-1].Week)))
	s.maxLine.Store(int64(l.Line))
	return nil
}

func (r restorer) Ticket(t data.Ticket) error {
	if t.Line >= MaxLineID {
		return fmt.Errorf("serve: checkpoint ticket %+v outside [0,%d)", t, MaxLineID)
	}
	sh := r.s.shardOf(t.Line)
	sh.dedup[t] = struct{}{}
	sh.tickets = append(sh.tickets, t)
	return nil
}

// ApplyWALRecord replays one logged batch during recovery or replication
// catch-up: the batch is applied through the same shard-apply helpers live
// ingest uses, and the store version is pinned to the record's version (no
// counter bump, no WAL sink — the record is already durable on the log that
// shipped it). The applied cells are marked written exactly as live ingest
// marks them, so a follower applying a stream of records keeps its publishes
// incremental. Records must arrive in version order; the WAL replay and
// stream decoders guarantee contiguity.
func (s *Store) ApplyWALRecord(rec *wal.Record) error {
	if v := s.version.Load(); rec.Version != v+1 {
		return fmt.Errorf("serve: replay version %d onto store at %d", rec.Version, v)
	}
	switch rec.Op {
	case wal.OpTests:
		recs := make([]TestRecord, len(rec.Tests))
		for i, t := range rec.Tests {
			recs[i] = TestRecord{
				Line: t.Line, Week: t.Week, Missing: t.Missing,
				F: t.F, Profile: t.Profile, DSLAM: t.DSLAM, Usage: t.Usage,
			}
			if err := validateTest(&recs[i]); err != nil {
				return fmt.Errorf("serve: replay version %d: %w", rec.Version, err)
			}
		}
		s.applyTests(recs)
	case wal.OpTickets:
		recs := make([]TicketRecord, len(rec.Tickets))
		for i, t := range rec.Tickets {
			recs[i] = TicketRecord{ID: t.ID, Line: t.Line, Day: t.Day, Category: uint8(t.Category)}
			if err := validateTicket(i, &recs[i]); err != nil {
				return fmt.Errorf("serve: replay version %d: %w", rec.Version, err)
			}
		}
		// A replayed ticket batch may be wholly covered by the checkpoint the
		// replay started from (WriteCheckpoint captures at least its
		// version); the version still advances.
		s.applyTickets(recs)
	default:
		return fmt.Errorf("serve: replay version %d: unknown op %d", rec.Version, rec.Op)
	}
	s.version.Store(rec.Version)
	return nil
}
