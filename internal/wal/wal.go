package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Segment file layout:
//
//	[16-byte header: 8-byte magic "NVMWAL01" | u32 format | u32 reserved]
//	[record frame]*
//
// Record frame:
//
//	[u32 payload length | u32 CRC32-C of payload | payload]
//
// Segments are named seg-%020d.wal where the number is the version of the
// first record in the segment; sorting names lexicographically sorts the
// chain. Records within and across segments are strictly contiguous: record
// N+1 carries version N+1. A gap means corruption and ends the readable
// chain — the log never writes one (an append that fails freezes the log).

const (
	segMagic   = "NVMWAL01"
	segFormat  = 1
	segHdrLen  = 16
	frameLen   = 8
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	segNameLen = len(segPrefix) + 20 + len(segSuffix)
)

// beginFrame starts a frame in buf (reusing its storage): the header room,
// to be filled by sealFrame once the payload has been appended after it. A
// frame is built and written as one buffer, so framing costs no copy.
func beginFrame(buf []byte) []byte {
	return append(buf[:0], make([]byte, frameLen)...)
}

// sealFrame fills in the header of a frame begun with beginFrame: the length
// and CRC32-C of the payload that follows it.
func sealFrame(frame []byte) {
	payload := frame[frameLen:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
}

// readFrame reads one frame from r and returns its CRC-checked payload,
// reusing buf's storage when it is large enough. io.EOF means r ended
// cleanly at the frame boundary; a torn header or payload, a length outside
// [minLen, maxLen] and a CRC mismatch all wrap ErrCorrupt. The length bound
// is checked before anything is allocated, so a corrupt length field cannot
// drive a huge allocation.
func readFrame(r io.Reader, buf []byte, minLen, maxLen int) ([]byte, error) {
	var hdr [frameLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn frame header", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n < minLen || n > maxLen {
		return nil, fmt.Errorf("%w: frame claims %d bytes", ErrCorrupt, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: torn frame payload", ErrCorrupt)
	}
	if crc32.Checksum(buf, crcTable) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return buf, nil
}

// SyncPolicy controls when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncInterval fsyncs from a background ticker (Options.SyncEvery). An
	// acked batch may be lost to a crash inside the window; ordering and
	// torn-tail repair are unaffected. This is the default.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append before it returns. No acked
	// batch is ever lost, at per-batch fsync cost.
	SyncAlways
	// SyncNever leaves flushing to OS writeback; the file is still synced
	// on rotation and Close.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseSyncPolicy maps the -wal.fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

// Options tunes a Log. The zero value is usable: 64 MB segments, interval
// fsync every 50ms.
type Options struct {
	// SegmentBytes rotates to a new segment once the active one reaches
	// this size. Default 64 MB.
	SegmentBytes int64
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval.
	// Default 50ms.
	SyncEvery time.Duration
	// FsyncObserver, if set, is called with the duration of every fsync —
	// the hook feeding the wal_fsync_duration_seconds histogram.
	FsyncObserver func(time.Duration)
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
}

// ErrReplayGap marks a replay whose chain does not reach back to the
// requested start version — the segments covering it were truncated away.
// The replication source maps it to 410 Gone so a lapsed follower knows to
// re-bootstrap from a checkpoint instead of retrying the stream.
var ErrReplayGap = errors.New("wal: replay gap")

// RecoverInfo reports what Open found and repaired.
type RecoverInfo struct {
	// LastVersion is the version of the last valid record, 0 if none.
	LastVersion uint64
	// Records is the total count of valid records across the chain.
	Records int
	// TruncatedBytes counts bytes cut from a torn or corrupt tail.
	TruncatedBytes int64
	// DroppedSegments counts segment files removed during repair (files
	// after a corrupt one, or files whose header is unreadable).
	DroppedSegments int
}

type segmentInfo struct {
	path  string
	first uint64 // version of first record, from the file name
	last  uint64 // version of last valid record (0 if empty)
	count int
	size  int64
}

// Log is an append-only write-ahead log over a directory of segments.
// Append is safe for one writer at a time (the store serialises appends
// under its version lock); Sync/Close may race with Append.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment, nil until first append
	size     int64    // bytes written to active segment
	last     uint64   // version of last appended record
	dirty    bool     // unsynced bytes in f
	broken   error    // first append failure; sticky
	segs     []segmentInfo
	buf      []byte // reused frame+payload scratch
	closed   bool
	ticker   *time.Ticker
	tickDone chan struct{}
}

// Open opens (creating if needed) the WAL directory, scans and repairs the
// segment chain, and returns a Log positioned to append after the last valid
// record. Repair truncates a torn tail in place and removes segments past
// the first corrupt one; it never invents or reorders records.
func Open(dir string, opts Options) (*Log, *RecoverInfo, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	segs, info, err := scanDir(dir, true)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opts: opts, segs: segs, last: info.LastVersion}
	// Reopen the final segment for appending if it has room; otherwise the
	// first Append starts a fresh one.
	if n := len(segs); n > 0 && segs[n-1].size < opts.SegmentBytes {
		f, err := os.OpenFile(segs[n-1].path, os.O_WRONLY, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reopen tail segment: %w", err)
		}
		if _, err := f.Seek(segs[n-1].size, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: seek tail segment: %w", err)
		}
		l.f, l.size = f, segs[n-1].size
	}
	if opts.Sync == SyncInterval {
		l.ticker = time.NewTicker(opts.SyncEvery)
		l.tickDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, info, nil
}

func (l *Log) syncLoop() {
	for {
		select {
		case <-l.ticker.C:
			l.Sync()
		case <-l.tickDone:
			return
		}
	}
}

// LastVersion returns the version of the last appended (or recovered)
// record, 0 if the log is empty.
func (l *Log) LastVersion() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Err returns the sticky append failure, nil if the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// Segments returns a snapshot of the segment chain, oldest first.
func (l *Log) Segments() []SegmentStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentStat, len(l.segs))
	for i, s := range l.segs {
		out[i] = SegmentStat{
			Path: s.path, FirstVersion: s.first, LastVersion: s.last,
			Records: s.count, Bytes: s.size,
		}
	}
	return out
}

// Append logs one record. The record's version must be exactly last+1 unless
// the log is empty, in which case any starting version is accepted (a fresh
// log on a store recovered from a checkpoint starts mid-history). Any write
// failure freezes the log: the error is returned now and from every later
// Append, so a partially written frame can never be followed by more records
// (no mid-chain gaps on disk — the torn frame is the tail, and repair on the
// next Open truncates it).
func (l *Log) Append(r *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	if l.closed {
		return fmt.Errorf("wal: append on closed log")
	}
	if l.last != 0 && r.Version != l.last+1 {
		return fmt.Errorf("wal: append version %d after %d (must be contiguous)", r.Version, l.last)
	}
	frame, err := appendRecord(beginFrame(l.buf), r)
	if err != nil {
		return err // encoding error: record rejected, log stays healthy
	}
	l.buf = frame[:0]
	if len(frame)-frameLen > MaxRecordBytes {
		return fmt.Errorf("wal: record payload %d bytes exceeds limit %d", len(frame)-frameLen, MaxRecordBytes)
	}
	if l.f == nil || l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(r.Version); err != nil {
			l.broken = err
			return err
		}
	}
	sealFrame(frame)
	if _, err := l.f.Write(frame); err != nil {
		l.broken = fmt.Errorf("wal: append: %w", err)
		return l.broken
	}
	l.size += int64(len(frame))
	l.last = r.Version
	l.dirty = true
	seg := &l.segs[len(l.segs)-1]
	seg.last = r.Version
	seg.count++
	seg.size = l.size
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			l.broken = err
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment (sync + close) and starts a new one
// whose name carries firstVersion.
func (l *Log) rotateLocked(firstVersion uint64) error {
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: seal segment: %w", err)
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, segName(firstVersion))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := make([]byte, segHdrLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], segFormat)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, segHdrLen
	l.segs = append(l.segs, segmentInfo{path: path, first: firstVersion, size: segHdrLen})
	return nil
}

func (l *Log) syncLocked() error {
	if l.f == nil || !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if l.opts.FsyncObserver != nil {
		l.opts.FsyncObserver(time.Since(start))
	}
	l.dirty = false
	return nil
}

// Sync flushes any unsynced appends to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	if err := l.syncLocked(); err != nil {
		l.broken = err
		return err
	}
	return nil
}

// Close syncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	return l.close(true)
}

// Abort closes the log WITHOUT syncing — test hook simulating a crash: bytes
// not yet flushed by the OS stay wherever writeback left them.
func (l *Log) Abort() error {
	return l.close(false)
}

func (l *Log) close(sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.ticker != nil {
		l.ticker.Stop()
		close(l.tickDone)
	}
	var err error
	if sync && l.broken == nil {
		err = l.syncLocked()
	}
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// Reset wipes every segment and repositions the log so the next Append must
// carry version+1. Used when a loaded checkpoint is already past the whole
// WAL chain (every record is covered by the checkpoint).
func (l *Log) Reset(version uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	for _, s := range l.segs {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: reset: %w", err)
		}
	}
	l.segs = nil
	l.size = 0
	l.last = version
	l.dirty = false
	return syncDir(l.dir)
}

// TruncateThrough removes sealed segments whose every record has version
// ≤ v — they are covered by a retained checkpoint. The active segment is
// never removed. Returns the number of segments removed.
func (l *Log) TruncateThrough(v uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segs) > 1 && l.segs[0].last != 0 && l.segs[0].last <= v {
		if err := os.Remove(l.segs[0].path); err != nil {
			return removed, fmt.Errorf("wal: truncate: %w", err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if len(name) != segNameLen || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(segPrefix):len(segPrefix)+20], 10, 64)
	if err != nil {
		return 0, false
	}
	return v, nil == err
}

// scanDir walks the segment chain in order, validating every frame. With
// repair=true it truncates torn tails in place, removes header-corrupt or
// out-of-chain segments, and fsyncs the directory afterwards; with
// repair=false (Inspect, Replay) it is read-only and simply stops reporting
// at the first invalid byte.
func scanDir(dir string, repair bool) ([]segmentInfo, *RecoverInfo, error) {
	names, err := segNames(dir)
	if err != nil {
		return nil, nil, err
	}
	info := &RecoverInfo{}
	var segs []segmentInfo
	chainBroken := false
	for _, name := range names {
		path := filepath.Join(dir, name)
		if chainBroken {
			// Everything after a broken segment is unreachable history.
			if repair {
				if err := os.Remove(path); err != nil {
					return nil, nil, fmt.Errorf("wal: drop segment: %w", err)
				}
				info.DroppedSegments++
			}
			continue
		}
		seg, validEnd, fileSize, segErr := scanSegment(path, info.LastVersion)
		switch {
		case segErr != nil:
			// Header unreadable or first-version mismatch: the whole file
			// is unusable and the chain ends before it.
			chainBroken = true
			if repair {
				if err := os.Remove(path); err != nil {
					return nil, nil, fmt.Errorf("wal: drop segment: %w", err)
				}
				info.DroppedSegments++
				info.TruncatedBytes += fileSize
			}
			continue
		case validEnd < fileSize:
			// Torn or corrupt tail inside this segment: chain ends at the
			// last valid record.
			chainBroken = true
			info.TruncatedBytes += fileSize - validEnd
			if repair {
				if seg.count == 0 {
					// No valid records at all — remove rather than keep an
					// empty husk.
					if err := os.Remove(path); err != nil {
						return nil, nil, fmt.Errorf("wal: drop empty segment: %w", err)
					}
					info.DroppedSegments++
					continue
				}
				if err := os.Truncate(path, validEnd); err != nil {
					return nil, nil, fmt.Errorf("wal: truncate tail: %w", err)
				}
				seg.size = validEnd
			}
		}
		if seg.count == 0 && !repair {
			continue
		}
		if seg.count == 0 {
			// Clean but empty segment (header only) — harmless; keep as the
			// append target.
			segs = append(segs, seg)
			continue
		}
		segs = append(segs, seg)
		info.LastVersion = seg.last
		info.Records += seg.count
	}
	if repair && (info.TruncatedBytes > 0 || info.DroppedSegments > 0) {
		if err := syncDir(dir); err != nil {
			return nil, nil, err
		}
	}
	return segs, info, nil
}

func segNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// scanSegment validates one segment file. prev is the version of the last
// valid record before this segment (0 at chain start). It returns the
// segment info for the valid prefix, the byte offset where validity ends,
// and the file's total size. A non-nil error means the file is unusable from
// the start (bad header, name/content mismatch, chain discontinuity).
func scanSegment(path string, prev uint64) (segmentInfo, int64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return segmentInfo{}, 0, 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return segmentInfo{}, 0, 0, fmt.Errorf("wal: stat segment: %w", err)
	}
	fileSize := st.Size()
	nameFirst, _ := parseSegName(filepath.Base(path))
	seg := segmentInfo{path: path, first: nameFirst}

	hdr := make([]byte, segHdrLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return seg, 0, fileSize, fmt.Errorf("%w: segment header truncated", ErrCorrupt)
	}
	if string(hdr[:8]) != segMagic {
		return seg, 0, fileSize, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(hdr[8:]) != segFormat {
		return seg, 0, fileSize, fmt.Errorf("%w: unknown segment format", ErrCorrupt)
	}
	if prev != 0 && nameFirst != prev+1 {
		return seg, 0, fileSize, fmt.Errorf("%w: segment starts at %d after chain tail %d", ErrCorrupt, nameFirst, prev)
	}

	validEnd := int64(segHdrLen)
	expect := nameFirst
	var payload []byte
	for {
		// Validity ends at a clean EOF, a torn or corrupt frame, or a frame
		// claiming more bytes than the file holds.
		p, err := readFrame(f, payload, recHeaderLen, int(min(MaxRecordBytes, fileSize-validEnd-frameLen)))
		if err != nil {
			break
		}
		payload = p
		rec, err := decodeRecord(payload)
		if err != nil || rec.Version != expect {
			break
		}
		validEnd += frameLen + int64(len(payload))
		seg.last = rec.Version
		seg.count++
		expect++
	}
	seg.size = validEnd
	return seg, validEnd, fileSize, nil
}

// Replay reads the chain and calls fn for every valid record with version
// strictly greater than from, in order. The chain must be contiguous from
// from+1: if the first record past from is not exactly from+1 (a junction
// gap — e.g. the checkpoint is older than the oldest retained segment),
// nothing is applied and an error is returned. fn returning an error aborts
// the replay. Read-only: no repair is performed.
func Replay(dir string, from uint64, fn func(*Record) error) (int, error) {
	names, err := segNames(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	applied := 0
	expect := uint64(0) // version of last applied-or-skipped record in chain
	for _, name := range names {
		path := filepath.Join(dir, name)
		stop, err := replaySegment(path, expect, from, &applied, fn)
		if err != nil {
			return applied, err
		}
		if stop == 0 || stop < expect {
			break // segment broken or out of chain: end of readable history
		}
		expect = stop
	}
	return applied, nil
}

// replaySegment walks one segment. prev is the chain tail before this
// segment (0 at start); applied counts records applied across the whole
// replay. Returns the new chain tail (0 if the segment is unusable) and any
// fn error.
func replaySegment(path string, prev, from uint64, applied *int, fn func(*Record) error) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil // vanished mid-walk: treat as end of chain
	}
	defer f.Close()
	nameFirst, _ := parseSegName(filepath.Base(path))
	hdr := make([]byte, segHdrLen)
	if _, err := io.ReadFull(f, hdr); err != nil || string(hdr[:8]) != segMagic ||
		binary.LittleEndian.Uint32(hdr[8:]) != segFormat {
		return 0, nil
	}
	if prev != 0 && nameFirst != prev+1 {
		return 0, nil
	}
	expect := nameFirst
	var payload []byte
	for {
		p, err := readFrame(f, payload, recHeaderLen, MaxRecordBytes)
		if err != nil {
			break
		}
		payload = p
		rec, err := decodeRecord(payload)
		if err != nil || rec.Version != expect {
			break
		}
		if rec.Version > from {
			// Contiguity across the junction: the first applied record of
			// the whole replay must be exactly from+1; chain arithmetic
			// guarantees contiguity from there.
			if *applied == 0 && rec.Version != from+1 {
				return 0, fmt.Errorf("%w: next record is version %d, want %d", ErrReplayGap, rec.Version, from+1)
			}
			if err := fn(rec); err != nil {
				return expect, fmt.Errorf("wal: replay apply version %d: %w", rec.Version, err)
			}
			*applied++
		}
		expect++
	}
	if expect == nameFirst {
		return 0, nil // no valid records in this segment
	}
	return expect - 1, nil
}

// SegmentStat describes one segment for Inspect and the CLI tool.
type SegmentStat struct {
	Path         string
	FirstVersion uint64
	LastVersion  uint64
	Records      int
	Bytes        int64
	// TornBytes counts bytes past the last valid record (0 for a clean
	// segment). Only populated by Inspect.
	TornBytes int64
	// Err describes why the segment is unusable, empty if healthy.
	Err string
}

// DirStat is Inspect's summary of a WAL directory.
type DirStat struct {
	Segments []SegmentStat
	// FirstVersion/LastVersion span the valid chain (0,0 when empty).
	FirstVersion uint64
	LastVersion  uint64
	Records      int
}

// Inspect walks a WAL directory read-only and reports per-segment health.
// Unlike Open it repairs nothing, so it is safe on a live log's directory.
func Inspect(dir string) (*DirStat, error) {
	names, err := segNames(dir)
	if err != nil {
		return nil, err
	}
	ds := &DirStat{}
	prev := uint64(0)
	chainBroken := false
	for _, name := range names {
		path := filepath.Join(dir, name)
		seg, validEnd, fileSize, segErr := scanSegment(path, prev)
		stat := SegmentStat{
			Path: path, FirstVersion: seg.first, LastVersion: seg.last,
			Records: seg.count, Bytes: fileSize, TornBytes: fileSize - validEnd,
		}
		switch {
		case chainBroken:
			stat.Err = "unreachable (chain broken earlier)"
		case segErr != nil:
			stat.Err = segErr.Error()
			chainBroken = true
		case validEnd < fileSize:
			stat.Err = fmt.Sprintf("torn tail (%d bytes)", fileSize-validEnd)
			chainBroken = true
		}
		if !chainBroken || stat.Err == fmt.Sprintf("torn tail (%d bytes)", fileSize-validEnd) {
			if seg.count > 0 {
				if ds.Records == 0 {
					ds.FirstVersion = seg.first
				}
				ds.LastVersion = seg.last
				ds.Records += seg.count
				prev = seg.last
			}
		}
		ds.Segments = append(ds.Segments, stat)
	}
	return ds, nil
}

// syncDir fsyncs a directory so renames/creates/removes inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
