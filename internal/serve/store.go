// Package serve is the online serving subsystem: the long-running half of
// NEVERMIND that the paper's deployment implies but one-shot CLIs cannot
// provide. It keeps the latest per-line test history in a sharded in-memory
// store, exposes the trained models behind a JSON HTTP API (ingest, score,
// rank, locate), runs the weekly pipeline loop that feeds predictions into
// the ATDS queue, and manages the model lifecycle: load at startup, atomic
// hot-reload, graceful drain on shutdown.
package serve

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nevermind/internal/data"
)

// MaxLineID bounds accepted line ids. The snapshot materialises a dense
// (weeks x lines) grid of 120-byte Measurements, so a single wild id in an
// otherwise-valid batch dictates the grid width: the bound is the allocation
// budget. 1<<17 caps the worst-case grid at 52*131072*120B ~ 0.8 GB and
// leaves 6.5x headroom over the 20k-line default population; the previous
// 1<<22 admitted a ~26 GB grid from one record, which the ingest fuzzer
// demonstrated as a minutes-long stall.
const MaxLineID = 1 << 17

// TestRecord is one ingested weekly line-test result: the measurement plus
// the static line attributes (service tier, serving DSLAM, usage propensity)
// the collector forwards alongside it. F holds the Table 2 feature values in
// data.BasicFeatureNames order; shorter vectors are zero-extended, which is
// also how a Missing (modem-off) record with no measurements is sent. Static
// attributes update from non-Missing records only (a modem-off probe learns
// nothing about the line), except that a line's very first record seeds them
// regardless.
type TestRecord struct {
	Line    data.LineID `json:"line"`
	Week    int         `json:"week"`
	Missing bool        `json:"missing,omitempty"`
	F       []float32   `json:"f,omitempty"`
	Profile uint8       `json:"profile,omitempty"`
	DSLAM   int32       `json:"dslam,omitempty"`
	Usage   float32     `json:"usage,omitempty"`
}

// TicketRecord is one ingested customer ticket.
type TicketRecord struct {
	ID       int         `json:"id"`
	Line     data.LineID `json:"line"`
	Day      int         `json:"day"`
	Category uint8       `json:"category"`
}

// lineState is everything the store knows about one line: its static
// attributes and every week's test result seen so far (at-most-one record
// per week; re-ingesting a week overwrites, so replayed feeds converge).
type lineState struct {
	profile uint8
	dslam   int32
	usage   float32
	seen    [data.Weeks]bool
	tests   [data.Weeks]data.Measurement
}

// shard is one lock domain of the store. Lines hash to shards by id, so
// concurrent ingest batches for different line ranges proceed in parallel;
// tickets live with the shard of their line.
type shard struct {
	mu      sync.RWMutex
	lines   map[data.LineID]*lineState
	tickets []data.Ticket
	// dedup guards against replayed ticket feeds: the exact same ticket
	// (id, line, day, category) ingests once.
	dedup map[data.Ticket]struct{}
}

// cellKey names one (line, week) test cell an ingest touched. Deltas carry
// cell keys, not payloads: applying a delta re-reads the cell's current shard
// state, so replaying a key is idempotent and two ingests racing on a cell
// converge to last-writer-wins exactly as a full rebuild would.
type cellKey struct {
	line data.LineID
	week int16
}

// deltaRecord is one ingest's footprint in the delta log: the version it
// produced, the test cells it touched, and the tickets it newly added
// (ticket values are safe to log — the shard-lock dedup guarantees each
// value is added exactly once, and the canonical ticket order makes the
// merge order-independent).
type deltaRecord struct {
	version uint64
	cells   []cellKey
	tickets []data.Ticket
}

// Delta log bounds: a log past either cap drops its oldest records (the next
// snapshot build past the gap falls back to a full rebuild, which needs no
// log). The caps bound the log to a few weeks of realistic ingest churn.
const (
	maxDeltaRecords = 1024
	maxDeltaCells   = 1 << 20
)

// Store is the sharded in-memory line-state store. Writers (ingest) take one
// shard's write lock per batch slice; readers (snapshot) take read locks
// shard by shard. Scoring never reads shards directly — it reads an
// immutable Snapshot materialised on demand and cached until the next
// ingest, so the scoring hot path costs zero lock traffic after the first
// request per store version.
type Store struct {
	shards  []shard
	mask    uint32
	version atomic.Uint64
	// latestWeek tracks the newest week ingested (-1 before any).
	latestWeek atomic.Int64
	snap       atomic.Pointer[Snapshot]
	// faults is the injection seam; nil in production.
	faults *FaultHooks
	// m, when set, receives ingest/build timings and shard-contention
	// counts; nil (a bare NewStore) records nothing.
	m *metrics
	// buildFailures counts snapshot rebuilds that failed (injected or
	// otherwise); while it climbs, readers keep getting the last good
	// snapshot and SnapshotLag reports how stale it is.
	buildFailures atomic.Uint64

	// owner, when set, is the fleet ownership predicate: records for lines
	// this shard does not own are validated normally but silently dropped
	// (counted in filtered), so a misrouted or replayed-to-everyone feed
	// cannot seat lines outside this shard's ring arc. Install before the
	// store takes traffic; nil (the default) accepts every line.
	owner    func(data.LineID) bool
	filtered atomic.Uint64

	// maxLine tracks the highest line id any applied test record carried
	// (-1 before the first), i.e. the width the next snapshot grid will
	// have. Exposed on /healthz so a fleet orchestrator can size its ATDS
	// queue exactly as a single-node pipeline sizes it from DS.NumLines.
	maxLine atomic.Int64

	// buildMu singleflights snapshot builds: concurrent readers that miss
	// the cache at the same version used to each run a full build with only
	// one result winning the publish CAS (a thundering herd after every
	// ingest). Now one builder works while the rest wait and reuse its
	// result via the double-checked cache load.
	buildMu sync.Mutex

	// deltaMu makes the version bump and the delta-log append one atomic
	// step, so the log holds exactly one record per version with no gaps.
	// Lock order: shard locks are never held when taking deltaMu; buildMu
	// holders take deltaMu only for brief log reads/prunes.
	deltaMu  sync.Mutex
	deltas   []deltaRecord
	logCells int

	// walSink, when set, receives every version bump with the applied batch
	// while deltaMu is held, so the write-ahead log's record order is exactly
	// the version order. Exactly one of tests/tickets is non-empty. Installed
	// by the Durability manager before the store takes traffic; nil (the
	// default) logs nothing.
	walSink func(version uint64, tests []TestRecord, tickets []data.Ticket)
}

// NewStore creates a store with the given shard count rounded up to a power
// of two; 0 sizes it to GOMAXPROCS, the lock-contention sweet spot for one
// writer goroutine per core.
func NewStore(shards int) *Store {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Store{
		shards: make([]shard, n),
		mask:   uint32(n - 1),
	}
	for i := range s.shards {
		s.shards[i].lines = make(map[data.LineID]*lineState)
		s.shards[i].dedup = make(map[data.Ticket]struct{})
	}
	s.latestWeek.Store(-1)
	s.maxLine.Store(-1)
	return s
}

func (s *Store) shardOf(line data.LineID) *shard {
	return &s.shards[uint32(line)&s.mask]
}

// SetFaults installs the fault-injection hooks. Call before the store takes
// traffic; nil removes them.
func (s *Store) SetFaults(h *FaultHooks) { s.faults = h }

// SetOwner installs the fleet ownership filter (see Store.owner). Call
// before the store takes traffic; nil removes it.
func (s *Store) SetOwner(owns func(data.LineID) bool) { s.owner = owns }

// FilteredRecords returns how many validated records the ownership filter
// has dropped — nonzero means some feed is routing lines to the wrong shard.
func (s *Store) FilteredRecords() uint64 { return s.filtered.Load() }

// setMetrics attaches the owning server's metrics; call before traffic.
func (s *Store) setMetrics(m *metrics) { s.m = m }

// lockShard takes sh's write lock, counting under op when the lock was
// already held — the shard-contention signal that says whether the shard
// count is keeping concurrent ingest batches out of each other's way.
func (s *Store) lockShard(sh *shard, op string) {
	if s.m == nil {
		sh.mu.Lock()
		return
	}
	if !sh.mu.TryLock() {
		s.m.shardContended.With(op).Add(1)
		sh.mu.Lock()
	}
}

// rlockShard is lockShard for readers: snapshot builds sweeping the shards
// count how often an ingest writer made them wait.
func (s *Store) rlockShard(sh *shard, op string) {
	if s.m == nil {
		sh.mu.RLock()
		return
	}
	if !sh.mu.TryRLock() {
		s.m.shardContended.With(op).Add(1)
		sh.mu.RLock()
	}
}

// BuildFailures returns how many snapshot rebuilds have failed so far.
func (s *Store) BuildFailures() uint64 { return s.buildFailures.Load() }

// SnapshotLag reports how many ingest versions the cached snapshot trails
// the store: 0 means the next read is (or will build) a fresh view, anything
// higher means rebuilds have been failing and readers are being served a
// stale-but-consistent generation.
func (s *Store) SnapshotLag() uint64 {
	v := s.version.Load()
	sn := s.snap.Load()
	if sn == nil {
		return v
	}
	return v - sn.Version
}

// NumShards returns the shard count (a power of two).
func (s *Store) NumShards() int { return len(s.shards) }

// Version returns the ingest counter; it bumps on every successful ingest
// batch and keys the snapshot cache.
func (s *Store) Version() uint64 { return s.version.Load() }

// LatestWeek returns the newest week any test record carried, or -1 before
// the first ingest.
func (s *Store) LatestWeek() int { return int(s.latestWeek.Load()) }

// ShardSizes returns the number of lines held per shard, for the monitoring
// surface.
func (s *Store) ShardSizes() []int {
	out := make([]int, len(s.shards))
	for i := range s.shards {
		s.shards[i].mu.RLock()
		out[i] = len(s.shards[i].lines)
		s.shards[i].mu.RUnlock()
	}
	return out
}

// GridLines returns the width the next snapshot grid will have — the
// highest applied test-record line id plus one, 0 before the first ingest.
// A fleet's global grid width is the max of its shards' GridLines, which is
// exactly the DS.NumLines a single node holding every record would report.
func (s *Store) GridLines() int {
	ml := s.maxLine.Load()
	if ml < 0 {
		return 0
	}
	return int(ml) + 1
}

// NumLines returns the number of distinct lines ingested.
func (s *Store) NumLines() int {
	n := 0
	for _, c := range s.ShardSizes() {
		n += c
	}
	return n
}

func validateTest(r *TestRecord) error {
	switch {
	case r.Line < 0 || r.Line >= MaxLineID:
		return fmt.Errorf("serve: line %d outside [0,%d)", r.Line, MaxLineID)
	case r.Week < 0 || r.Week >= data.Weeks:
		return fmt.Errorf("serve: week %d outside [0,%d)", r.Week, data.Weeks)
	case len(r.F) > data.NumBasicFeatures:
		return fmt.Errorf("serve: %d feature values exceed the %d of Table 2", len(r.F), data.NumBasicFeatures)
	case int(r.Profile) >= len(data.Profiles):
		return fmt.Errorf("serve: unknown profile %d", r.Profile)
	case r.DSLAM < 0:
		return fmt.Errorf("serve: negative DSLAM %d", r.DSLAM)
	}
	return nil
}

func validateTicket(i int, r *TicketRecord) error {
	switch {
	case r.Line < 0 || r.Line >= MaxLineID:
		return fmt.Errorf("%w: ticket %d: line %d outside [0,%d)", ErrBadBatch, i, r.Line, MaxLineID)
	case r.Day < 0 || r.Day >= data.DaysInYear:
		return fmt.Errorf("%w: ticket %d: day %d outside the year", ErrBadBatch, i, r.Day)
	case r.Category > uint8(data.CatOther):
		return fmt.Errorf("%w: ticket %d: unknown category %d", ErrBadBatch, i, r.Category)
	}
	return nil
}

// ValidateIngest checks a full ingest body with exactly the validation the
// store applies — tests first, then tickets, identical error text — without
// touching any state. The daemon runs it before applying either half and the
// fleet gateway before scattering sub-batches, so a bad body is rejected
// whole, on one node or fleet-wide.
func ValidateIngest(req *IngestRequest) error {
	for i := range req.Tests {
		if err := validateTest(&req.Tests[i]); err != nil {
			return fmt.Errorf("%w: record %d: %w", ErrBadBatch, i, err)
		}
	}
	for i := range req.Tickets {
		if err := validateTicket(i, &req.Tickets[i]); err != nil {
			return err
		}
	}
	return nil
}

// bumpVersion advances the ingest counter and logs the ingest's delta as one
// atomic step, keeping the log gapless: record i always holds the footprint
// of version deltas[0].version+i. tests carries the applied (post-filter)
// records for the write-ahead log sink, which runs under the same lock so
// the durable log's order matches the version order exactly.
func (s *Store) bumpVersion(cells []cellKey, tickets []data.Ticket, tests []TestRecord) {
	s.deltaMu.Lock()
	v := s.version.Add(1)
	s.deltas = append(s.deltas, deltaRecord{version: v, cells: cells, tickets: tickets})
	s.logCells += len(cells) + len(tickets)
	for len(s.deltas) > 0 && (len(s.deltas) > maxDeltaRecords || s.logCells > maxDeltaCells) {
		drop := &s.deltas[0]
		s.logCells -= len(drop.cells) + len(drop.tickets)
		*drop = deltaRecord{}
		s.deltas = s.deltas[1:]
	}
	if s.walSink != nil {
		s.walSink(v, tests, tickets)
	}
	s.deltaMu.Unlock()
}

// pinVersion sets the store version to v (a replayed record's version) and
// logs its delta, exactly as bumpVersion does for live ingest but with no
// counter bump and no WAL sink (the record is already durable). Feeding the
// delta log during replay keeps a replication follower's snapshot rebuilds
// O(batch) per applied record instead of a full grid recopy per version.
func (s *Store) pinVersion(v uint64, cells []cellKey, tickets []data.Ticket) {
	s.deltaMu.Lock()
	s.version.Store(v)
	s.deltas = append(s.deltas, deltaRecord{version: v, cells: cells, tickets: tickets})
	s.logCells += len(cells) + len(tickets)
	for len(s.deltas) > 0 && (len(s.deltas) > maxDeltaRecords || s.logCells > maxDeltaCells) {
		drop := &s.deltas[0]
		s.logCells -= len(drop.cells) + len(drop.tickets)
		*drop = deltaRecord{}
		s.deltas = s.deltas[1:]
	}
	s.deltaMu.Unlock()
}

// SetWALSink installs the write-ahead log hook (see Store.walSink). Call
// before the store takes traffic; nil removes it.
func (s *Store) SetWALSink(fn func(version uint64, tests []TestRecord, tickets []data.Ticket)) {
	s.walSink = fn
}

// deltasBetween returns the delta records covering versions (base, target],
// or ok == false when the log no longer holds them all (pruned or dropped on
// overflow) and the caller must fall back to a full rebuild. The returned
// records' slices are append-only after logging, so reading them outside
// deltaMu is safe.
func (s *Store) deltasBetween(base, target uint64) ([]deltaRecord, bool) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	if target <= base {
		return nil, true
	}
	if len(s.deltas) == 0 {
		return nil, false
	}
	first := s.deltas[0].version
	last := s.deltas[len(s.deltas)-1].version
	if first > base+1 || last < target {
		return nil, false
	}
	lo := int(base + 1 - first)
	hi := int(target - first + 1)
	return append([]deltaRecord(nil), s.deltas[lo:hi]...), true
}

// pruneDeltas drops log records at or below version: once a snapshot at that
// version is published, no future build can need them (delta applies always
// start from the cached snapshot).
func (s *Store) pruneDeltas(version uint64) {
	s.deltaMu.Lock()
	n := 0
	for n < len(s.deltas) && s.deltas[n].version <= version {
		s.logCells -= len(s.deltas[n].cells) + len(s.deltas[n].tickets)
		s.deltas[n] = deltaRecord{}
		n++
	}
	s.deltas = s.deltas[n:]
	s.deltaMu.Unlock()
}

// IngestTests applies a batch of line-test records. The batch is validated
// up front and applied shard by shard; on a validation error nothing is
// applied. Returns the number of records stored.
func (s *Store) IngestTests(recs []TestRecord) (int, error) {
	for i := range recs {
		if err := validateTest(&recs[i]); err != nil {
			return 0, fmt.Errorf("%w: record %d: %w", ErrBadBatch, i, err)
		}
	}
	// Ownership filtering happens after validation so a fleet shard rejects
	// exactly the batches a bare daemon would, with identical error text.
	if owns := s.owner; owns != nil {
		var kept []TestRecord
		for i := range recs {
			if owns(recs[i].Line) {
				kept = append(kept, recs[i])
			} else {
				s.filtered.Add(1)
			}
		}
		recs = kept
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if h := s.faults; h != nil && h.IngestTests != nil {
		if err := h.IngestTests(len(recs)); err != nil {
			return 0, err
		}
	}
	if m := s.m; m != nil {
		defer func(t0 time.Time) {
			m.storeIngestDur.With("ingest_tests").Observe(time.Since(t0))
		}(time.Now())
	}
	cells := s.applyTests(recs)
	s.bumpVersion(cells, nil, recs)
	return len(recs), nil
}

// applyTests seats validated test records into their shards and advances the
// latestWeek/maxLine watermarks. It is the shared apply step between live
// ingest (IngestTests, which then bumps the version) and WAL replay
// (ApplyWALRecord, which pins the version the record carries). Returns the
// touched cells for the delta log.
func (s *Store) applyTests(recs []TestRecord) []cellKey {
	// Group by shard so each shard's lock is taken once per batch.
	byShard := make([][]int, len(s.shards))
	maxWeek := -1
	maxL := int64(-1)
	for i := range recs {
		si := uint32(recs[i].Line) & s.mask
		byShard[si] = append(byShard[si], i)
		if recs[i].Week > maxWeek {
			maxWeek = recs[i].Week
		}
		if int64(recs[i].Line) > maxL {
			maxL = int64(recs[i].Line)
		}
	}
	cells := make([]cellKey, 0, len(recs))
	for si, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[si]
		s.lockShard(sh, "ingest_tests")
		for _, i := range idxs {
			r := &recs[i]
			ls := sh.lines[r.Line]
			isNew := ls == nil
			if isNew {
				ls = &lineState{}
				sh.lines[r.Line] = ls
			}
			// A Missing (modem-off) record carries no measurements and
			// typically no static attributes either; letting it overwrite
			// them would zero a known line's profile/DSLAM/usage. Only
			// non-Missing records update attributes — except on a brand-new
			// line, where whatever the record carries beats all-zeros.
			if !r.Missing || isNew {
				ls.profile, ls.dslam, ls.usage = r.Profile, r.DSLAM, r.Usage
			}
			m := data.Measurement{Line: r.Line, Week: r.Week, Missing: r.Missing}
			copy(m.F[:], r.F)
			ls.tests[r.Week] = m
			ls.seen[r.Week] = true
			cells = append(cells, cellKey{line: r.Line, week: int16(r.Week)})
		}
		sh.mu.Unlock()
	}
	for {
		cur := s.latestWeek.Load()
		if int64(maxWeek) <= cur || s.latestWeek.CompareAndSwap(cur, int64(maxWeek)) {
			break
		}
	}
	for {
		cur := s.maxLine.Load()
		if maxL <= cur || s.maxLine.CompareAndSwap(cur, maxL) {
			break
		}
	}
	return cells
}

// IngestTickets applies a batch of customer tickets (exact duplicates are
// dropped). Returns the number of new tickets stored.
func (s *Store) IngestTickets(recs []TicketRecord) (int, error) {
	for i := range recs {
		if err := validateTicket(i, &recs[i]); err != nil {
			return 0, err
		}
	}
	if owns := s.owner; owns != nil {
		var kept []TicketRecord
		for _, r := range recs {
			if owns(r.Line) {
				kept = append(kept, r)
			} else {
				s.filtered.Add(1)
			}
		}
		recs = kept
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if h := s.faults; h != nil && h.IngestTickets != nil {
		if err := h.IngestTickets(len(recs)); err != nil {
			return 0, err
		}
	}
	if m := s.m; m != nil {
		defer func(t0 time.Time) {
			m.storeIngestDur.With("ingest_tickets").Observe(time.Since(t0))
		}(time.Now())
	}
	added := s.applyTickets(recs)
	if len(added) > 0 {
		s.bumpVersion(nil, added, nil)
	}
	return len(added), nil
}

// applyTickets seats validated tickets into their shards, dropping exact
// duplicates via the shard dedup maps, and returns the tickets actually
// added. Shared between live ingest and WAL replay (replayed ticket batches
// are post-dedup values, so on a clean replay every one is added again).
func (s *Store) applyTickets(recs []TicketRecord) []data.Ticket {
	// Group by shard and take each shard's lock once per batch, exactly as
	// IngestTests does. The per-record lock/unlock this replaced made a
	// large ticket batch pay thousands of lock round-trips on one shard.
	// Shards go in index order and records in input order within a shard,
	// so the added list, and with it the WAL ticket record, is a function
	// of the batch.
	byShard := make([][]int, len(s.shards))
	for i := range recs {
		si := uint32(recs[i].Line) & s.mask
		byShard[si] = append(byShard[si], i)
	}
	var added []data.Ticket
	for si, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[si]
		s.lockShard(sh, "ingest_tickets")
		for _, i := range idxs {
			r := &recs[i]
			t := data.Ticket{ID: r.ID, Line: r.Line, Day: r.Day, Category: data.TicketCategory(r.Category)}
			if _, dup := sh.dedup[t]; !dup {
				sh.dedup[t] = struct{}{}
				sh.tickets = append(sh.tickets, t)
				added = append(added, t)
			}
		}
		sh.mu.Unlock()
	}
	return added
}

// Snapshot is an immutable point-in-use view of the store in the shape the
// feature encoder consumes: a dense data.Dataset grid (never-ingested
// (line, week) cells are Missing), a prebuilt ticket index, and the presence
// matrix that distinguishes "line tested this week with the modem off" from
// "no record at all". Consumers must treat every field as read-only.
//
// Successive snapshots are built incrementally: applying an ingest's delta
// copies only the grid chunks, presence rows and per-week line lists the
// ingest touched, and shares everything else with the previous generation.
type Snapshot struct {
	Version uint64
	DS      *data.Dataset
	Ix      *data.TicketIndex
	// Present is week-major: Present[w][l] reports whether a test record
	// was ingested for line l at week w.
	Present [][]bool
	// Lines holds every ingested line id, ascending.
	Lines []data.LineID

	// linesAt[w] caches the ascending line ids present at week w, computed
	// at build/delta-apply time so LinesAt is a slice return, not a
	// population scan per /v1/rank request.
	linesAt [data.Weeks][]data.LineID

	// tabMu guards tabs, the per-(models, week) score-table cache built
	// lazily by the scoring fast path (see scoretable.go), and carry, the
	// tables a delta-applied snapshot inherited from its base and has not
	// read yet; a read moves its table from carry into tabs.
	tabMu sync.Mutex
	tabs  map[tabKey]*weekTable
	carry map[tabKey]*weekTable
}

// LinesAt returns the lines with a test record at the given week, ascending
// — the population a weekly ranking covers. The returned slice is the
// snapshot's cached copy: callers must not modify it.
func (sn *Snapshot) LinesAt(week int) []data.LineID {
	if week < 0 || week >= data.Weeks {
		return nil
	}
	return sn.linesAt[week]
}

// Snapshot materialises (or returns the cached) dataset view of the store.
// The cache is keyed by the store version: any ingest invalidates it, and
// the first read after an ingest pays the rebuild — a delta apply when the
// log covers the gap, a full grid rebuild otherwise. Builds are
// singleflighted: concurrent readers missing the cache wait for one builder
// instead of each rebuilding. Shards are read-locked one at a time, so a
// snapshot overlapping concurrent ingests may split them across shards —
// each line's state is still internally consistent, and the version
// recorded is the one read before the build, so the next read rebuilds. An
// empty store yields a nil snapshot.
//
// Degradation contract: when a rebuild fails (an injected or real
// infrastructure fault), Snapshot falls back to the last successfully built
// snapshot — stale by SnapshotLag versions but internally consistent — and
// the next read retries the rebuild. Readers therefore never observe a torn
// or partially built view; they observe an older complete one.
func (s *Store) Snapshot() *Snapshot {
	if sn := s.snap.Load(); sn != nil && sn.Version == s.version.Load() {
		return sn
	}
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	// Double-check under the build lock: the builder we waited behind may
	// have published the version we need.
	v := s.version.Load()
	if sn := s.snap.Load(); sn != nil && sn.Version == v {
		return sn
	}
	sn, err := s.buildFrom(s.snap.Load(), v)
	if err != nil {
		s.buildFailures.Add(1)
		return s.snap.Load()
	}
	if sn == nil {
		return nil
	}
	s.snap.Store(sn)
	s.pruneDeltas(sn.Version)
	return sn
}

// ResetSnapshotCache drops the cached snapshot, forcing the next Snapshot
// call to rebuild from the shards. It exists for benchmarks and equivalence
// tests (delta-applied vs from-scratch snapshots must be bit-identical);
// production code never needs it.
func (s *Store) ResetSnapshotCache() {
	s.buildMu.Lock()
	s.snap.Store(nil)
	s.buildMu.Unlock()
}

// buildFrom builds the snapshot for version: incrementally from base when
// the delta log covers (base.Version, version] and no delta widens the
// grid, else from scratch.
func (s *Store) buildFrom(base *Snapshot, version uint64) (*Snapshot, error) {
	if base != nil {
		if recs, ok := s.deltasBetween(base.Version, version); ok && deltasFit(recs, base.DS.NumLines) {
			sn, err := s.applyDelta(base, recs, version)
			if err != nil {
				return nil, err
			}
			if m := s.m; m != nil {
				m.snapshotBuilds.With("delta").Add(1)
			}
			return sn, nil
		}
	}
	sn, err := s.build(version)
	if err == nil && sn != nil {
		if m := s.m; m != nil {
			m.snapshotBuilds.With("full").Add(1)
		}
	}
	return sn, err
}

// deltasFit reports whether every touched cell fits the base grid's width.
// A cell beyond it means a new line widened the grid; the full rebuild that
// handles it also re-sweeps shard tickets, recovering any ticket that was
// filtered out of earlier snapshots because its line had no row yet.
func deltasFit(recs []deltaRecord, numLines int) bool {
	for i := range recs {
		for _, c := range recs[i].cells {
			if int(c.line) >= numLines {
				return false
			}
		}
	}
	return true
}

// applyDelta derives the snapshot at version from base plus the logged
// deltas: touched cells are re-read from their shards (so the result is the
// same last-writer-wins state a full rebuild would copy) into copy-on-write
// chunks, flipped presence rows and per-week line lists are copied once per
// week, attribute slices are copied only if a value actually changed, and
// the ticket slice and index are shared unless a delta added tickets. The
// base's week score tables carry over as far as the deltas leave them valid
// (see carryTables).
func (s *Store) applyDelta(base *Snapshot, recs []deltaRecord, version uint64) (*Snapshot, error) {
	if m := s.m; m != nil {
		defer func(t0 time.Time) {
			m.snapshotApplyDur.Observe(time.Since(t0))
		}(time.Now())
	}
	// The rebuild fault seam covers incremental builds too: a chaos process
	// that fails snapshot builds must degrade delta applies the same way.
	if h := s.faults; h != nil && h.SnapshotBuild != nil {
		if err := h.SnapshotBuild(version); err != nil {
			return nil, err
		}
	}
	n := base.DS.NumLines
	ds := *base.DS // shallow copy; COW fields below replace what changes
	ds.Grid = base.DS.Grid.ShareCopy()
	ownedChunks := make([]bool, len(ds.Grid.Chunks))

	sn := &Snapshot{
		Version: version,
		DS:      &ds,
		Ix:      base.Ix,
		Present: base.Present,
		Lines:   base.Lines,
		linesAt: base.linesAt,
	}

	var (
		presentShared = true           // sn.Present still aliases base.Present
		ownedRows     [data.Weeks]bool // presence rows copied so far
		dirtyWeeks    [data.Weeks]bool // weeks whose linesAt needs a rebuild
		attrsShared   = true           // ProfileOf/DSLAMOf/UsageOf still alias base
		dslamChanged  = false
		newLines      []data.LineID
		changed       tableDelta
	)

	// Group touched cells by shard so each shard is read-locked once.
	byShard := make(map[int][]cellKey)
	for i := range recs {
		for _, c := range recs[i].cells {
			si := int(uint32(c.line) & s.mask)
			byShard[si] = append(byShard[si], c)
		}
		changed.cells = append(changed.cells, recs[i].cells...)
	}
	for si, cells := range byShard {
		sh := &s.shards[si]
		s.rlockShard(sh, "snapshot")
		if h := s.faults; h != nil && h.ShardRead != nil {
			h.ShardRead(si)
		}
		for _, c := range cells {
			ls := sh.lines[c.line]
			w := int(c.week)
			if ls == nil || !ls.seen[w] {
				continue // lines are never removed; defensive only
			}
			ds.Grid.SetCOW(ownedChunks, c.line, w, ls.tests[w])
			if !sn.Present[w][c.line] {
				if presentShared {
					sn.Present = append([][]bool(nil), base.Present...)
					presentShared = false
				}
				if !ownedRows[w] {
					sn.Present[w] = append([]bool(nil), sn.Present[w]...)
					ownedRows[w] = true
				}
				sn.Present[w][c.line] = true
				dirtyWeeks[w] = true
			}
			if ds.ProfileOf[c.line] != ls.profile || ds.DSLAMOf[c.line] != ls.dslam || ds.UsageOf[c.line] != ls.usage {
				if attrsShared {
					ds.ProfileOf = append([]uint8(nil), ds.ProfileOf...)
					ds.DSLAMOf = append([]int32(nil), ds.DSLAMOf...)
					ds.UsageOf = append([]float32(nil), ds.UsageOf...)
					attrsShared = false
				}
				if ds.DSLAMOf[c.line] != ls.dslam {
					dslamChanged = true
				}
				ds.ProfileOf[c.line], ds.DSLAMOf[c.line], ds.UsageOf[c.line] = ls.profile, ls.dslam, ls.usage
				changed.attrs = append(changed.attrs, c.line)
			}
			if !containsLine(sn.Lines, c.line) && !containsLineLinear(newLines, c.line) {
				newLines = append(newLines, c.line)
			}
		}
		sh.mu.RUnlock()
	}

	if len(newLines) > 0 {
		merged := make([]data.LineID, 0, len(base.Lines)+len(newLines))
		merged = append(merged, base.Lines...)
		merged = append(merged, newLines...)
		sort.Slice(merged, func(a, b int) bool { return merged[a] < merged[b] })
		sn.Lines = merged
	}
	for w := 0; w < data.Weeks; w++ {
		if !dirtyWeeks[w] {
			continue
		}
		row := sn.Present[w]
		rebuilt := make([]data.LineID, 0, len(base.linesAt[w])+len(newLines))
		for _, l := range sn.Lines {
			if row[l] {
				rebuilt = append(rebuilt, l)
			}
		}
		sn.linesAt[w] = rebuilt
	}

	// NumDSLAMs is sized from attribute values; recompute only when they
	// could have moved. Never-ingested rows hold 0, which cannot exceed any
	// real id, so the array max matches the full build's max over shard
	// states.
	if dslamChanged || len(newLines) > 0 {
		maxDSLAM := int32(0)
		for _, d := range ds.DSLAMOf {
			if d > maxDSLAM {
				maxDSLAM = d
			}
		}
		ds.NumDSLAMs = int(maxDSLAM) + 1
	}

	// Merge newly added tickets. Lines the grid has no row for stay out,
	// exactly as the full build filters them; they are recovered by the full
	// rebuild that accompanies the grid widening. The base may already hold
	// a logged ticket when its build raced the ingest, so the merge dedups
	// against the base's canonically sorted slice.
	var added []data.Ticket
	for i := range recs {
		for _, t := range recs[i].tickets {
			if int(t.Line) < n && !containsTicket(base.DS.Tickets, t) {
				added = append(added, t)
			}
		}
	}
	if len(added) > 0 {
		merged := make([]data.Ticket, 0, len(base.DS.Tickets)+len(added))
		merged = append(merged, base.DS.Tickets...)
		merged = append(merged, added...)
		sortTickets(merged)
		ds.Tickets = merged
		sn.Ix = data.NewTicketIndex(&ds)
	}
	changed.tickets = added
	sn.carry = carryTables(base, sn, changed)
	return sn, nil
}

// containsLine reports whether the ascending slice holds l.
func containsLine(sorted []data.LineID, l data.LineID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= l })
	return i < len(sorted) && sorted[i] == l
}

// containsLineLinear is the unsorted-slice variant for applyDelta's short
// accumulating new-line list, which is in cell order, not ascending.
func containsLineLinear(lines []data.LineID, l data.LineID) bool {
	for _, x := range lines {
		if x == l {
			return true
		}
	}
	return false
}

// sortTickets puts ts in the canonical ticket order, data.TicketLess.
func sortTickets(ts []data.Ticket) {
	sort.Slice(ts, func(a, b int) bool { return data.TicketLess(ts[a], ts[b]) })
}

// containsTicket reports whether the canonically sorted slice holds t.
func containsTicket(sorted []data.Ticket, t data.Ticket) bool {
	i := sort.Search(len(sorted), func(i int) bool { return !data.TicketLess(sorted[i], t) })
	return i < len(sorted) && sorted[i] == t
}

func (s *Store) build(version uint64) (*Snapshot, error) {
	if m := s.m; m != nil {
		defer func(t0 time.Time) {
			m.storeBuildDur.Observe(time.Since(t0))
		}(time.Now())
	}
	if h := s.faults; h != nil && h.SnapshotBuild != nil {
		if err := h.SnapshotBuild(version); err != nil {
			return nil, err
		}
	}
	// Pass 1: grid width. Lines ingested after this pass (the build runs
	// lock-free between shards, so concurrent ingests can land mid-build)
	// are excluded from this snapshot in pass 2 — they belong to a later
	// version, and the version recorded here predates them, so the next
	// read rebuilds and picks them up.
	maxLine := data.LineID(-1)
	for i := range s.shards {
		sh := &s.shards[i]
		s.rlockShard(sh, "snapshot")
		for l := range sh.lines {
			if l > maxLine {
				maxLine = l
			}
		}
		sh.mu.RUnlock()
	}
	if maxLine < 0 {
		return nil, nil
	}
	n := int(maxLine) + 1
	ds := &data.Dataset{
		NumLines:  n,
		ProfileOf: make([]uint8, n),
		DSLAMOf:   make([]int32, n),
		UsageOf:   make([]float32, n),
		Grid:      data.NewMeasurementGrid(n),
	}
	present := make([][]bool, data.Weeks)
	for w := 0; w < data.Weeks; w++ {
		present[w] = make([]bool, n)
	}
	// Pass 2: copy line states and tickets. NumDSLAMs is sized from the
	// values actually copied, so a DSLAM id can never index past it.
	maxDSLAM := int32(0)
	var lines []data.LineID
	var tickets []data.Ticket
	for i := range s.shards {
		sh := &s.shards[i]
		s.rlockShard(sh, "snapshot")
		if h := s.faults; h != nil && h.ShardRead != nil {
			h.ShardRead(i)
		}
		for l, ls := range sh.lines {
			if l > maxLine {
				continue // arrived after pass 1; next version's snapshot
			}
			lines = append(lines, l)
			if ls.dslam > maxDSLAM {
				maxDSLAM = ls.dslam
			}
			ds.ProfileOf[l], ds.DSLAMOf[l], ds.UsageOf[l] = ls.profile, ls.dslam, ls.usage
			for w := 0; w < data.Weeks; w++ {
				if ls.seen[w] {
					*ds.Grid.At(l, w) = ls.tests[w]
					present[w][l] = true
				}
			}
		}
		// Tickets for lines the store has never seen a test for stay out of
		// the snapshot: the grid has no row for them, and they join once the
		// line's first test record arrives.
		for _, t := range sh.tickets {
			if t.Line <= maxLine {
				tickets = append(tickets, t)
			}
		}
		sh.mu.RUnlock()
	}
	ds.NumDSLAMs = int(maxDSLAM) + 1
	sort.Slice(lines, func(a, b int) bool { return lines[a] < lines[b] })
	sortTickets(tickets)
	ds.Tickets = tickets
	sn := &Snapshot{
		Version: version,
		DS:      ds,
		Ix:      data.NewTicketIndex(ds),
		Present: present,
		Lines:   lines,
	}
	for w := 0; w < data.Weeks; w++ {
		row := present[w]
		var at []data.LineID
		for _, l := range lines {
			if row[l] {
				at = append(at, l)
			}
		}
		sn.linesAt[w] = at
	}
	return sn, nil
}
