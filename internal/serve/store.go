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
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"nevermind/internal/data"
)

// MaxLineID bounds accepted line ids. The store keeps every test cell in a
// (weeks x lines) grid as wide as the highest line id seen, so a single wild
// id in an otherwise-valid batch dictates the grid width: the bound is the
// allocation budget. Unwritten chunks share one no-record chunk, so a wide
// grid costs its chunk table (52 slots per 1024 lines), the store's line
// table (32 B per line of width, 4 MB at the cap), the per-line attribute
// and presence slices a publish sizes to the width, and the 120 KB chunks
// records actually write: one wild id writes one chunk. 1<<17 leaves 6.5x
// headroom over the 20k-line default population and caps the grid at
// 52*131072*120B ~ 0.8 GB were every week of every line written; the
// previous 1<<22 admitted a ~26 GB grid from one record, which the ingest
// fuzzer demonstrated as a minutes-long stall.
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

// lineState is what the store knows about one line besides its test cells,
// which live in the store's grid: its static attributes and two week
// bitmasks. Bit w of seen is set once a week-w record has arrived (at most
// one record per week; re-ingesting a week overwrites its cell, so replayed
// feeds converge); the store holds the line iff seen is nonzero. Bit w of
// dirty is set while the week-w cell holds a write no published snapshot
// has seen. listed is set once a published snapshot's Lines holds the line,
// so a publish tells a new line from a listed one without searching Lines.
// Newness cannot be read off the bitmasks: re-ingesting a listed line's
// only week leaves seen == dirty.
type lineState struct {
	profile     uint8
	listed      bool
	dslam       int32
	usage       float32
	seen, dirty uint64
}

// shard is one lock domain of the store. It owns the lines of every grid
// chunk whose index is its own modulo the shard count, so each chunk and
// the same lines' entries of the store's line table are written under
// exactly one lock and concurrent ingest batches for different line ranges
// proceed in parallel; tickets live with the shard of their line.
type shard struct {
	mu      sync.RWMutex
	tickets []data.Ticket
	// dedup guards against replayed ticket feeds: the exact same ticket
	// (id, line, day, category) ingests once.
	dedup map[data.Ticket]struct{}
	// dirty lists every line with a dirty week, once; published counts the
	// tickets (a prefix of tickets) a publish has already taken. Both reset
	// at each publish, so neither grows with re-ingests of the same cells.
	dirty     []data.LineID
	published int
}

// Store is the sharded in-memory line-state store. Writers (ingest) take one
// shard's write lock per batch slice. Scoring never reads shards directly —
// it reads an immutable Snapshot published on demand and cached until the
// next ingest, so the scoring hot path costs zero lock traffic after the
// first request per store version.
type Store struct {
	shards []shard
	mask   uint32
	// grid is the store of record for every test cell; a cell no record has
	// reached reads the no-record default from the grid's shared no-record
	// chunk, which costs no memory per slot. Chunk c of every week belongs to
	// shard c&mask and is written only under that shard's lock. owned[i]
	// marks grid.Chunks[i] private to the store (no published snapshot
	// shares it), so a write lands in place; a write to a shared chunk copies
	// it first. The grid's width and chunk table change only under every
	// shard's lock (widen, restore), as does owned at a publish.
	grid  *data.MeasurementGrid
	owned []bool
	// lines is the line table: lines[l] is line l's state, one entry per
	// line of the grid's width. Entry l belongs to the shard of l's grid
	// chunk and is read and written only under that shard's lock; the slice
	// itself grows with the grid, under every shard's lock, and may move
	// when it does. numLines counts the entries whose seen is nonzero.
	lines    []lineState
	numLines atomic.Int64
	// gridCells is grid.HeldCells(), the cells its written chunks hold,
	// kept as an atomic so /metrics reads it without the shard locks: a
	// write that takes a slot off the shared no-record chunk adds to it,
	// and a widen or restore (under every shard's lock) recounts it.
	gridCells atomic.Int64

	version atomic.Uint64
	// latestWeek tracks the newest week ingested (-1 before any).
	latestWeek atomic.Int64
	snap       atomic.Pointer[Snapshot]
	// faults is the injection seam; nil in production.
	faults *FaultHooks
	// m, when set, receives ingest/build timings and shard-contention
	// counts; nil (a bare NewStore) records nothing.
	m *metrics
	// buildFailures counts snapshot publishes that failed (injected or
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

	// maxLine is the highest line id any applied test record carried (-1
	// before the first), i.e. the grid's width minus one. Exposed on
	// /healthz so a fleet orchestrator can size its ATDS queue exactly as a
	// single-node pipeline sizes it from DS.NumLines.
	maxLine atomic.Int64

	// buildMu singleflights publishes: concurrent readers that miss the
	// cache at the same version wait for one publisher and reuse its result
	// via the double-checked cache load.
	buildMu sync.Mutex

	// walMu makes the version bump and the WAL append one step, so the
	// write-ahead log's record order is exactly the version order. Shard
	// locks are never held when taking it.
	walMu sync.Mutex
	// walSink, when set, receives every version bump with the applied batch
	// while walMu is held. Exactly one of tests/tickets is non-empty.
	// Installed by the Durability manager before the store takes traffic;
	// nil (the default) logs nothing.
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
		grid:   data.NewMeasurementGrid(0),
	}
	for i := range s.shards {
		s.shards[i].dedup = make(map[data.Ticket]struct{})
	}
	s.latestWeek.Store(-1)
	s.maxLine.Store(-1)
	return s
}

// shardIndex returns the shard that owns line's grid chunk.
func (s *Store) shardIndex(line data.LineID) int {
	return int((uint32(line) / data.GridChunkLines) & s.mask)
}

func (s *Store) shardOf(line data.LineID) *shard {
	return &s.shards[s.shardIndex(line)]
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

// rlockShard is lockShard for readers: checkpoint writes sweeping the
// shards count how often an ingest writer made them wait.
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

// lockAll write-locks every shard in index order, the only order in which
// any path holds more than one; unlockAll releases them.
func (s *Store) lockAll(op string) {
	for i := range s.shards {
		s.lockShard(&s.shards[i], op)
	}
}

func (s *Store) unlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
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

// GridBytes returns the bytes of test cells the store's grid holds: its
// written chunks, not the slots that point at the shared no-record chunk.
// It takes no shard lock.
func (s *Store) GridBytes() int64 {
	return s.gridCells.Load() * int64(unsafe.Sizeof(data.Measurement{}))
}

// NumLines returns the number of distinct lines ingested. It takes no
// shard lock.
func (s *Store) NumLines() int { return int(s.numLines.Load()) }

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

// bumpVersion advances the ingest counter and hands the applied batch to the
// write-ahead log sink as one step under walMu, so the durable log's order
// matches the version order exactly. tests carries the applied
// (post-filter) records, tickets the newly added ones.
func (s *Store) bumpVersion(tests []TestRecord, tickets []data.Ticket) {
	s.walMu.Lock()
	v := s.version.Add(1)
	if s.walSink != nil {
		s.walSink(v, tests, tickets)
	}
	s.walMu.Unlock()
}

// SetWALSink installs the write-ahead log hook (see Store.walSink). Call
// before the store takes traffic; nil removes it.
func (s *Store) SetWALSink(fn func(version uint64, tests []TestRecord, tickets []data.Ticket)) {
	s.walSink = fn
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
	s.applyTests(recs)
	s.bumpVersion(recs, nil)
	return len(recs), nil
}

// applyTests writes validated test records into the grid and their lines'
// states, widening the grid first when a record lies past it, and advances
// the latestWeek watermark. It is the apply step shared by live ingest
// (IngestTests, which then bumps the version) and WAL replay
// (ApplyWALRecord, which pins the version the record carries).
func (s *Store) applyTests(recs []TestRecord) {
	// Group by shard so each shard's lock is taken once per batch.
	byShard := make([][]int, len(s.shards))
	maxWeek, maxL := -1, data.LineID(-1)
	for i := range recs {
		si := s.shardIndex(recs[i].Line)
		byShard[si] = append(byShard[si], i)
		maxWeek = max(maxWeek, recs[i].Week)
		maxL = max(maxL, recs[i].Line)
	}
	s.widen(maxL)
	for si, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[si]
		s.lockShard(sh, "ingest_tests")
		for _, i := range idxs {
			r := &recs[i]
			ls := &s.lines[r.Line]
			isNew := ls.seen == 0
			if isNew {
				s.numLines.Add(1)
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
			if fresh := s.grid.SetCOW(s.owned, r.Line, r.Week, m); fresh > 0 {
				s.gridCells.Add(int64(fresh))
			}
			if ls.dirty == 0 {
				sh.dirty = append(sh.dirty, r.Line)
			}
			ls.seen |= 1 << r.Week
			ls.dirty |= 1 << r.Week
		}
		sh.mu.Unlock()
	}
	for {
		cur := s.latestWeek.Load()
		if int64(maxWeek) <= cur || s.latestWeek.CompareAndSwap(cur, int64(maxWeek)) {
			break
		}
	}
}

// widen grows the grid and the line table to cover line when it lies past
// them. Growing re-lays the chunk table every shard indexes and may move
// the line table, so it holds every shard's lock.
func (s *Store) widen(line data.LineID) {
	if int64(line) <= s.maxLine.Load() {
		return
	}
	s.lockAll("ingest_tests")
	if int64(line) > s.maxLine.Load() {
		s.grow(int(line) + 1)
		s.gridCells.Store(int64(s.grid.HeldCells()))
		s.maxLine.Store(int64(line))
	}
	s.unlockAll()
}

// grow widens the grid and the line table to n lines. The caller holds
// every shard's lock or owns the store outright (a restore's private one).
func (s *Store) grow(n int) {
	s.owned = s.grid.Grow(n, s.owned)
	if n > len(s.lines) {
		s.lines = slices.Grow(s.lines, n-len(s.lines))[:n]
	}
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
		s.bumpVersion(nil, added)
	}
	return len(added), nil
}

// applyTickets seats validated tickets into their shards, dropping exact
// duplicates via the shard dedup maps, and returns the tickets actually
// added. Shared between live ingest and WAL replay (replayed ticket batches
// are post-dedup values, so on a clean replay every one is added again).
func (s *Store) applyTickets(recs []TicketRecord) []data.Ticket {
	// Group by shard and take each shard's lock once per batch, exactly as
	// IngestTests does. Shards go in index order and records in input order
	// within a shard, so the added list, and with it the WAL ticket record,
	// is a function of the batch.
	byShard := make([][]int, len(s.shards))
	for i := range recs {
		si := s.shardIndex(recs[i].Line)
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

// Snapshot is an immutable point-in-time view of the store in the shape the
// feature encoder consumes: a dense data.Dataset whose grid is frozen from
// the store's (never-ingested (line, week) cells are the Missing no-record
// default), a prebuilt ticket index, and the presence matrix that
// distinguishes "line tested this week with the modem off" from "no record
// at all". Consumers must treat every field as read-only.
//
// A snapshot shares with the store every grid chunk written before its
// publish and not since, and with the snapshot it was derived from every
// presence row, per-week line list, attribute slice and ticket list the
// writes in between left unchanged.
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
	// at publish time so LinesAt is a slice return, not a population scan
	// per /v1/rank request.
	linesAt [data.Weeks][]data.LineID

	// tabMu guards tabs, the per-(models, week) score-table cache built
	// lazily by the scoring fast path (see scoretable.go), and carry, the
	// tables a snapshot inherited from its base and has not read yet; a
	// read moves its table from carry into tabs.
	tabMu sync.Mutex
	tabs  map[tabKey]*weekTable
	carry map[tabKey]*weekTable

	// fallbacks[w] holds week w's imputation fallback, computed on first
	// use (see weekFallback). A publish that wrote no week-w cell shares its
	// base's slot, so snapshots that agree on week w compute it once.
	fallbacks [data.Weeks]*fallbackSlot
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

// Snapshot publishes (or returns the cached) dataset view of the store. The
// cache is keyed by the store version: any ingest invalidates it, and the
// first read after an ingest pays the publish, which costs the grid's chunk
// count plus the lines written since the previous publish (see publish).
// Publishes are singleflighted: concurrent readers missing the cache wait
// for one publisher instead of each publishing. The version recorded is the
// one read before the publish, so a snapshot that caught part of a
// concurrent ingest is republished by the next read. An empty store yields
// a nil snapshot.
//
// Degradation contract: when a publish fails (an injected or real
// infrastructure fault), Snapshot falls back to the last published
// snapshot — stale by SnapshotLag versions but internally consistent — and
// the next read retries; the failed publish consumed nothing, so the retry
// covers every write since the last success. Readers therefore never
// observe a torn or partially built view; they observe an older complete
// one.
func (s *Store) Snapshot() *Snapshot {
	if sn := s.snap.Load(); sn != nil && sn.Version == s.version.Load() {
		return sn
	}
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	// Double-check under the build lock: the publisher we waited behind may
	// have published the version we need.
	v := s.version.Load()
	base := s.snap.Load()
	if base != nil && base.Version == v {
		return base
	}
	sn, err := s.publish(base, v)
	if err != nil {
		s.buildFailures.Add(1)
		return base
	}
	if sn != nil {
		s.snap.Store(sn)
	}
	return sn
}

// ResetSnapshotCache drops the cached snapshot, so the next Snapshot call
// publishes with no base: every present cell counts as written, and the
// presence matrix, line lists, attributes and tickets are derived from the
// whole store. Equivalence tests compare that against base-derived
// snapshots, and benchmarks time it; production code never needs it.
func (s *Store) ResetSnapshotCache() {
	s.buildMu.Lock()
	s.snap.Store(nil)
	s.buildMu.Unlock()
}

// lineWrite is one line as a publish reads it: its attributes, the weeks
// (bit w for week w) written since the previous publish, and whether the
// base's Lines lacks it.
type lineWrite struct {
	line     data.LineID
	weeks    uint64
	profile  uint8
	unlisted bool
	dslam    int32
	usage    float32
}

// publish builds the snapshot at version; every snapshot is built here. It
// freezes the grid under every shard's lock (a ShareCopy of the chunk table,
// after which the store copies any chunk before writing it) and takes the
// lines written and the tickets added since base was published. From base
// plus those it derives presence, line lists, attributes, tickets and the
// week tables the new snapshot carries (see carryTables). With no base —
// the first publish after start, restore or ResetSnapshotCache — every
// present cell counts as written. A base-less publish is counted and timed
// as a "full" build, any other as a "delta".
func (s *Store) publish(base *Snapshot, version uint64) (*Snapshot, error) {
	if m := s.m; m != nil {
		h := m.snapshotApplyDur
		if base == nil {
			h = m.storeBuildDur
		}
		defer func(t0 time.Time) { h.Observe(time.Since(t0)) }(time.Now())
	}
	if h := s.faults; h != nil && h.SnapshotBuild != nil {
		if err := h.SnapshotBuild(version); err != nil {
			return nil, err
		}
	}
	if s.maxLine.Load() < 0 {
		return nil, nil // tickets alone have no grid row to show them on
	}
	nb := 0
	if base != nil {
		nb = base.DS.NumLines
	}

	s.lockAll("snapshot")
	grid := s.grid.ShareCopy()
	clear(s.owned)
	n := grid.NumLines
	grew := n > nb
	nw := int(s.numLines.Load())
	if base != nil {
		nw = 0
		for i := range s.shards {
			nw += len(s.shards[i].dirty)
		}
	}
	writes := make([]lineWrite, 0, nw)
	if base == nil { // every present cell counts as written, every line as new
		for l := range s.lines {
			if ls := &s.lines[l]; ls.seen != 0 {
				ls.dirty, ls.listed = ls.seen, false
				writes = s.readWrite(writes, data.LineID(l))
			}
		}
	}
	var added []data.Ticket
	for i := range s.shards {
		sh := &s.shards[i]
		if h := s.faults; h != nil && h.ShardRead != nil {
			h.ShardRead(i)
		}
		if base != nil {
			for _, l := range sh.dirty {
				writes = s.readWrite(writes, l)
			}
		}
		sh.dirty = sh.dirty[:0]
		// A ticket shows once the grid has its line's row. New tickets
		// show if it has one now; older ones were left out while their line
		// lay past the base's grid, and show once the grid has grown past
		// them.
		if grew {
			for _, t := range sh.tickets[:sh.published] {
				if int(t.Line) >= nb && int(t.Line) < n {
					added = append(added, t)
				}
			}
		}
		for _, t := range sh.tickets[sh.published:] {
			if int(t.Line) < n {
				added = append(added, t)
			}
		}
		sh.published = len(sh.tickets)
	}
	s.unlockAll()

	ds := &data.Dataset{}
	sn := &Snapshot{Version: version, DS: ds}
	if base != nil {
		*ds = *base.DS // shallow copy; what changed is replaced below
		sn.Ix, sn.Present, sn.Lines, sn.linesAt = base.Ix, slices.Clone(base.Present), base.Lines, base.linesAt
	}
	ds.NumLines, ds.Grid = n, grid
	var (
		rowOwned   [data.Weeks]bool // presence rows already copied
		attrsOwned bool             // ProfileOf/DSLAMOf/UsageOf already copied
		dirtyWeeks [data.Weeks]bool // weeks whose linesAt needs a rebuild
		dslamMoved bool
		newLines   []data.LineID
		written    uint64 // bit w: some week-w cell was written
		changed    = tableDelta{cells: writes, tickets: added}
	)
	if grew {
		// Every per-line slice grows with the grid.
		ds.ProfileOf = append(make([]uint8, 0, n), ds.ProfileOf...)[:n]
		ds.DSLAMOf = append(make([]int32, 0, n), ds.DSLAMOf...)[:n]
		ds.UsageOf = append(make([]float32, 0, n), ds.UsageOf...)[:n]
		attrsOwned = true
		sn.Present = make([][]bool, data.Weeks)
		for w := range sn.Present {
			sn.Present[w] = make([]bool, n)
			if base != nil {
				copy(sn.Present[w], base.Present[w])
			}
			rowOwned[w] = true
		}
	}
	for _, c := range writes {
		l := c.line
		written |= c.weeks
		for weeks := c.weeks; weeks != 0; weeks &= weeks - 1 {
			w := bits.TrailingZeros64(weeks)
			if sn.Present[w][l] {
				continue
			}
			if !rowOwned[w] {
				sn.Present[w] = slices.Clone(sn.Present[w])
				rowOwned[w] = true
			}
			sn.Present[w][l] = true
			dirtyWeeks[w] = true
		}
		if ds.ProfileOf[l] != c.profile || ds.DSLAMOf[l] != c.dslam || ds.UsageOf[l] != c.usage {
			if !attrsOwned {
				ds.ProfileOf = slices.Clone(ds.ProfileOf)
				ds.DSLAMOf = slices.Clone(ds.DSLAMOf)
				ds.UsageOf = slices.Clone(ds.UsageOf)
				attrsOwned = true
			}
			dslamMoved = dslamMoved || ds.DSLAMOf[l] != c.dslam
			ds.ProfileOf[l], ds.DSLAMOf[l], ds.UsageOf[l] = c.profile, c.dslam, c.usage
			changed.attrs = append(changed.attrs, l)
		}
		if c.unlisted {
			newLines = append(newLines, l)
		}
	}

	if len(newLines) > 0 {
		sn.Lines = append(slices.Clip(sn.Lines), newLines...)
		slices.Sort(sn.Lines)
	}
	for w, dirty := range dirtyWeeks {
		if !dirty {
			continue
		}
		row := sn.Present[w]
		at := make([]data.LineID, 0, len(sn.linesAt[w])+len(newLines))
		for _, l := range sn.Lines {
			if row[l] {
				at = append(at, l)
			}
		}
		sn.linesAt[w] = at
	}
	// NumDSLAMs is sized from attribute values; recompute only when they
	// could have moved. Never-ingested rows hold 0, which cannot exceed any
	// real id.
	if dslamMoved || len(newLines) > 0 || grew {
		ds.NumDSLAMs = int(slices.Max(ds.DSLAMOf)) + 1
	}
	if len(added) > 0 {
		// The base's tickets are sorted and the added ones are not among
		// them (each shard drops exact duplicates, and a ticket left out
		// while its line lay past the grid is added once, when the grid
		// grows past it), so merging equals sorting the union.
		sortTickets(added)
		ds.Tickets = mergeTickets(ds.Tickets, added)
	}
	if len(added) > 0 || grew {
		sn.Ix = data.NewTicketIndex(ds) // indexed by line: grows with the grid
	}
	// A week's fallback averages its present cells, so it stands unless a
	// week-w cell was written (lines the grid grew by hold no-record cells at
	// every week not written).
	for w := range sn.fallbacks {
		if base != nil && written&(1<<w) == 0 {
			sn.fallbacks[w] = base.fallbacks[w]
		} else {
			sn.fallbacks[w] = new(fallbackSlot)
		}
	}
	// Week tables cover [0, NumLines), so a grown grid carries none.
	if !grew {
		sn.carry = carryTables(base, sn, changed)
	}
	if m := s.m; m != nil {
		kind := "delta"
		if base == nil {
			kind = "full"
		}
		m.snapshotBuilds.With(kind).Add(1)
	}
	return sn, nil
}

// readWrite appends line l as the publish reads it to writes, then marks it
// published: no week dirty, listed. The caller holds l's shard lock.
func (s *Store) readWrite(writes []lineWrite, l data.LineID) []lineWrite {
	ls := &s.lines[l]
	writes = append(writes, lineWrite{
		line: l, weeks: ls.dirty, profile: ls.profile, dslam: ls.dslam, usage: ls.usage,
		unlisted: !ls.listed,
	})
	ls.dirty, ls.listed = 0, true
	return writes
}

// sortTickets puts ts in the canonical ticket order, data.TicketLess.
func sortTickets(ts []data.Ticket) {
	slices.SortFunc(ts, func(a, b data.Ticket) int {
		switch {
		case data.TicketLess(a, b):
			return -1
		case data.TicketLess(b, a):
			return 1
		}
		return 0
	})
}

// mergeTickets returns, in a new slice, the TicketLess-sorted lists a and b
// merged into one sorted list.
func mergeTickets(a, b []data.Ticket) []data.Ticket {
	out := make([]data.Ticket, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if data.TicketLess(b[0], a[0]) {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}
