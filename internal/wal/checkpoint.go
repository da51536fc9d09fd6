package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"nevermind/internal/data"
)

// Checkpoints are full-store state dumps written beside the segments, named
// ckpt-%020d.ckpt by the store version they capture. Format 2, the one
// written, is uncompressed and streamed record by record:
//
//	[20-byte header: 8-byte magic "NVMCKPT2" | u32 format (2) | u64 version]
//	[frame: kind 1 (version) | u64 version]
//	[frame: kind 2 (lines)   | line record+]*
//	[frame: kind 3 (tickets) | ticket entry+]*
//	[frame: kind 4 (end)     | u64 line count | u64 ticket count]
//
// Frames are the segment frames, [u32 payload length | u32 CRC32-C of
// payload | payload], and a payload's first byte is its kind. A record
// never spans frames. All fields are fixed-width little-endian:
//
//	line record: u32 line | u8 profile | i32 DSLAM | f32 usage | u8 cells |
//	             cells × (u8 week | u8 flags (bit 0 = Missing) | 25 × f32 F)
//	ticket entry: u64 ID | u32 line | u32 day | u8 category (the WAL's)
//
// Records come in canonical order — lines ascending, weeks ascending within
// a line, tickets in data.TicketLess order — so the bytes are a function of
// the state alone. Every byte is checked: frames by their CRC, the header's
// magic and format by value, and its version against the file name and the
// version frame. The end frame's counts must match the records read, a file
// cut at any frame boundary lacks the end frame, and nothing may follow it.
// Writes are atomic: tmp + fsync + rename + dir fsync — a crashed write
// leaves only a .tmp husk, which pruning removes.
//
// Format 1, a gzipped gob stream written before format 2, is no longer
// read: its bytes fail as "not a checkpoint".

const (
	ckptMagic   = "NVMCKPT2"
	ckptFormat  = 2
	ckptHdrLen  = 20
	ckptPrefix  = "ckpt-"
	ckptSuffix  = ".ckpt"
	ckptNameLen = len(ckptPrefix) + 20 + len(ckptSuffix)

	// Frame kinds, in the order their frames appear.
	kindVersion = 1
	kindLines   = 2
	kindTickets = 3
	kindEnd     = 4

	lineRecFixed = 4 + 1 + 4 + 4 + 1
	cellLen      = 1 + 1 + 4*data.NumBasicFeatures
	// A frame is sealed once its payload reaches ckptFrameTarget bytes, so
	// no payload exceeds the target plus one full line record.
	ckptFrameTarget = 64 << 10
	ckptFrameMax    = ckptFrameTarget + lineRecFixed + data.Weeks*cellLen
)

// CheckpointLine is one line's full state in a checkpoint: its static
// attributes and every seen week's measurement, weeks ascending, each
// measurement carrying the record's Line.
type CheckpointLine struct {
	Line    data.LineID
	Profile uint8
	DSLAM   int32
	Usage   float32
	Tests   []data.Measurement
}

// order is what every checkpoint must satisfy record by record, on the
// write side and on the read side: lines strictly ascending, each with one
// to data.Weeks cells in strictly ascending weeks that name the record's
// line, and attributes within the data model's ranges; then tickets
// strictly ascending in data.TicketLess order and within range. It counts
// the records it has passed; the zero value is ready for the first record.
type order struct {
	lastLine data.LineID
	lastTkt  data.Ticket
	lines    uint64
	tickets  uint64
}

func (o *order) line(l *CheckpointLine) error {
	switch {
	case o.tickets > 0:
		return fmt.Errorf("%w: checkpoint line %d after tickets", ErrCorrupt, l.Line)
	case l.Line < 0:
		return fmt.Errorf("%w: negative checkpoint line %d", ErrCorrupt, l.Line)
	case o.lines > 0 && l.Line <= o.lastLine:
		return fmt.Errorf("%w: checkpoint line %d follows line %d", ErrCorrupt, l.Line, o.lastLine)
	case int(l.Profile) >= len(data.Profiles):
		return fmt.Errorf("%w: checkpoint line %d has profile %d", ErrCorrupt, l.Line, l.Profile)
	case l.DSLAM < 0:
		return fmt.Errorf("%w: checkpoint line %d has DSLAM %d", ErrCorrupt, l.Line, l.DSLAM)
	case len(l.Tests) == 0 || len(l.Tests) > data.Weeks:
		return fmt.Errorf("%w: checkpoint line %d holds %d weeks", ErrCorrupt, l.Line, len(l.Tests))
	}
	prevWeek := -1
	for i := range l.Tests {
		m := &l.Tests[i]
		if m.Line != l.Line {
			return fmt.Errorf("%w: checkpoint line %d holds a measurement for line %d", ErrCorrupt, l.Line, m.Line)
		}
		if m.Week <= prevWeek || m.Week >= data.Weeks {
			return fmt.Errorf("%w: checkpoint line %d has week %d after week %d", ErrCorrupt, l.Line, m.Week, prevWeek)
		}
		prevWeek = m.Week
	}
	o.lastLine = l.Line
	o.lines++
	return nil
}

func (o *order) ticket(t data.Ticket) error {
	if o.tickets > 0 && !data.TicketLess(o.lastTkt, t) {
		return fmt.Errorf("%w: checkpoint ticket %+v follows %+v", ErrCorrupt, t, o.lastTkt)
	}
	if err := ticketFieldErr(t); err != nil {
		return fmt.Errorf("%w: checkpoint ticket %d %v", ErrCorrupt, t.ID, err)
	}
	o.lastTkt = t
	o.tickets++
	return nil
}

// appendLine serialises one line record onto buf.
func appendLine(buf []byte, l *CheckpointLine) []byte {
	n := len(buf)
	size := lineRecFixed + len(l.Tests)*cellLen
	buf = slices.Grow(buf, size)[:n+size]
	rec := buf[n:]
	binary.LittleEndian.PutUint32(rec, uint32(l.Line))
	rec[4] = l.Profile
	binary.LittleEndian.PutUint32(rec[5:], uint32(l.DSLAM))
	binary.LittleEndian.PutUint32(rec[9:], math.Float32bits(l.Usage))
	rec[13] = byte(len(l.Tests))
	for i := range l.Tests {
		m := &l.Tests[i]
		c := rec[lineRecFixed+i*cellLen:]
		c[0], c[1] = byte(m.Week), 0
		if m.Missing {
			c[1] = 1
		}
		for k, f := range m.F {
			binary.LittleEndian.PutUint32(c[2+4*k:], math.Float32bits(f))
		}
	}
	return buf
}

// decodeLine parses the line record at the front of b into l, reusing
// l.Tests, and returns the rest of b. It checks the layout only; order
// checks the values.
func decodeLine(b []byte, l *CheckpointLine) ([]byte, error) {
	if len(b) < lineRecFixed {
		return nil, fmt.Errorf("%w: truncated checkpoint line record", ErrCorrupt)
	}
	l.Line = data.LineID(int32(binary.LittleEndian.Uint32(b)))
	l.Profile = b[4]
	l.DSLAM = int32(binary.LittleEndian.Uint32(b[5:]))
	l.Usage = math.Float32frombits(binary.LittleEndian.Uint32(b[9:]))
	n := int(b[13])
	b = b[lineRecFixed:]
	if len(b) < n*cellLen {
		return nil, fmt.Errorf("%w: checkpoint line %d claims %d weeks", ErrCorrupt, l.Line, n)
	}
	l.Tests = slices.Grow(l.Tests[:0], n)[:n]
	for i := range l.Tests {
		c := b[i*cellLen:]
		if c[1]&^1 != 0 {
			return nil, fmt.Errorf("%w: checkpoint line %d has cell flags %#x", ErrCorrupt, l.Line, c[1])
		}
		m := &l.Tests[i]
		m.Line, m.Week, m.Missing = l.Line, int(c[0]), c[1] == 1
		for k := range m.F {
			m.F[k] = math.Float32frombits(binary.LittleEndian.Uint32(c[2+4*k:]))
		}
	}
	return b[n*cellLen:], nil
}

// CheckpointWriter streams one format-2 checkpoint into a temporary file
// beside its final name. Line and Ticket take the records in canonical
// order; a record out of order or out of range fails the write, so the
// writer never publishes a file the loader would reject. Commit publishes
// the file atomically; Abort (a no-op after Commit) removes the husk of one
// that will not be committed. The first error is sticky.
type CheckpointWriter struct {
	dir, tmp string
	version  uint64
	f        *os.File
	frame    []byte // the frame being filled; empty between frames
	ord      order
	err      error
	done     bool
}

// CreateCheckpoint starts the checkpoint for the given store version in dir:
// it creates the temporary file and writes the header and version frame.
func CreateCheckpoint(dir string, version uint64) (*CheckpointWriter, error) {
	if version == 0 {
		return nil, errVersionZero
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create checkpoint dir: %w", err)
	}
	tmp := filepath.Join(dir, ckptName(version)) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create checkpoint: %w", err)
	}
	w := &CheckpointWriter{dir: dir, tmp: tmp, version: version, f: f}
	hdr := make([]byte, ckptHdrLen)
	copy(hdr, ckptMagic)
	binary.LittleEndian.PutUint32(hdr[8:], ckptFormat)
	binary.LittleEndian.PutUint64(hdr[12:], version)
	if _, err := f.Write(hdr); err != nil {
		w.err = fmt.Errorf("wal: write checkpoint header: %w", err)
	}
	w.open(kindVersion)
	w.frame = binary.LittleEndian.AppendUint64(w.frame, version)
	w.seal()
	if w.err != nil {
		w.Abort()
		return nil, w.err
	}
	return w, nil
}

// open makes the frame being filled one of the given kind, sealing a frame
// of another kind first.
func (w *CheckpointWriter) open(kind byte) {
	if len(w.frame) > 0 && w.frame[frameLen] != kind {
		w.seal()
	}
	if len(w.frame) == 0 {
		w.frame = append(beginFrame(w.frame), kind)
	}
}

// seal frames and writes the frame being filled.
func (w *CheckpointWriter) seal() {
	if len(w.frame) == 0 || w.err != nil {
		return
	}
	sealFrame(w.frame)
	if _, err := w.f.Write(w.frame); err != nil {
		w.err = fmt.Errorf("wal: write checkpoint: %w", err)
	}
	w.frame = w.frame[:0]
}

// sealIfFull seals the frame being filled once it reaches the target size.
func (w *CheckpointWriter) sealIfFull() error {
	if len(w.frame) >= frameLen+ckptFrameTarget {
		w.seal()
	}
	return w.err
}

// Line appends one line record. Lines must precede every ticket.
func (w *CheckpointWriter) Line(l *CheckpointLine) error {
	if w.err == nil {
		w.err = w.ord.line(l)
	}
	if w.err != nil {
		return w.err
	}
	w.open(kindLines)
	w.frame = appendLine(w.frame, l)
	return w.sealIfFull()
}

// Ticket appends one ticket entry.
func (w *CheckpointWriter) Ticket(t data.Ticket) error {
	if w.err == nil {
		w.err = w.ord.ticket(t)
	}
	if w.err != nil {
		return w.err
	}
	w.open(kindTickets)
	w.frame = appendTicket(w.frame, t)
	return w.sealIfFull()
}

// Commit writes the end frame and publishes the checkpoint: fsync, rename
// over the final name, fsync the directory.
func (w *CheckpointWriter) Commit() error {
	w.open(kindEnd)
	w.frame = binary.LittleEndian.AppendUint64(w.frame, w.ord.lines)
	w.frame = binary.LittleEndian.AppendUint64(w.frame, w.ord.tickets)
	w.seal()
	if w.err == nil {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("wal: sync checkpoint: %w", err)
		}
	}
	if w.err != nil {
		w.Abort()
		return w.err
	}
	w.done = true
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("wal: close checkpoint: %w", err)
	}
	if err := os.Rename(w.tmp, filepath.Join(w.dir, ckptName(w.version))); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	return syncDir(w.dir)
}

// Abort discards an uncommitted checkpoint and removes its temporary file.
func (w *CheckpointWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	os.Remove(w.tmp)
}

// errVersionZero rejects a checkpoint claiming version 0: every checkpoint
// captures at least one ingest.
var errVersionZero = fmt.Errorf("%w: checkpoint at version 0", ErrCorrupt)

// CheckpointSink receives a checkpoint's records in canonical order, each
// already checked. The *CheckpointLine and its Tests are reused between
// calls: a sink copies what it keeps. A sink error aborts the read.
type CheckpointSink interface {
	Line(*CheckpointLine) error
	Ticket(data.Ticket) error
}

// LoadCheckpoint reads a checkpoint file into sink and returns the store
// version it captures, cross-checked against the file name. On error the
// sink may have seen records of a file that does not load: the caller
// discards whatever it built from them.
func LoadCheckpoint(path string, sink CheckpointSink) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: open checkpoint: %w", err)
	}
	defer f.Close()
	v, err := ReadCheckpoint(f, sink)
	if err != nil {
		return 0, err
	}
	if nameV, ok := parseCkptName(filepath.Base(path)); ok && nameV != v {
		return 0, fmt.Errorf("wal: checkpoint name says version %d, header says %d", nameV, v)
	}
	return v, nil
}

// ReadCheckpoint reads a checkpoint byte stream (the exact file bytes, minus
// the file-name cross-check LoadCheckpoint adds) into sink and returns the
// store version it captures. This is the loader a replication follower uses
// on an HTTP response body, where there is no file name. The same caveat
// applies: on error, discard what the sink built.
func ReadCheckpoint(r io.Reader, sink CheckpointSink) (uint64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	if magic, _ := br.Peek(len(ckptMagic)); string(magic) != ckptMagic {
		return 0, fmt.Errorf("%w: not a checkpoint", ErrCorrupt)
	}
	hdr := make([]byte, ckptHdrLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, fmt.Errorf("%w: checkpoint header truncated", ErrCorrupt)
	}
	if f := binary.LittleEndian.Uint32(hdr[8:]); f != ckptFormat {
		return 0, fmt.Errorf("%w: unknown checkpoint format %d", ErrCorrupt, f)
	}
	version := binary.LittleEndian.Uint64(hdr[12:])
	if version == 0 {
		return 0, errVersionZero
	}
	var (
		buf  []byte
		kind byte
		line CheckpointLine
		ord  order
	)
	for {
		payload, err := readFrame(br, buf, 1, ckptFrameMax)
		if err == io.EOF {
			return 0, fmt.Errorf("%w: checkpoint ends without its end frame", ErrCorrupt)
		}
		if err != nil {
			return 0, err
		}
		buf = payload
		next, body := payload[0], payload[1:]
		// The version frame comes first and only first; lines, tickets and
		// the end frame follow in kind order.
		if (kind == 0) != (next == kindVersion) || next < kind || next > kindEnd {
			return 0, fmt.Errorf("%w: checkpoint frame kind %d after kind %d", ErrCorrupt, next, kind)
		}
		kind = next
		switch kind {
		case kindVersion:
			if len(body) != 8 || binary.LittleEndian.Uint64(body) != version {
				return 0, fmt.Errorf("%w: checkpoint version frame disagrees with header version %d", ErrCorrupt, version)
			}
		case kindLines:
			if len(body) == 0 {
				return 0, fmt.Errorf("%w: empty checkpoint line frame", ErrCorrupt)
			}
			for len(body) > 0 {
				if body, err = decodeLine(body, &line); err != nil {
					return 0, err
				}
				if err := ord.line(&line); err != nil {
					return 0, err
				}
				if err := sink.Line(&line); err != nil {
					return 0, err
				}
			}
		case kindTickets:
			if len(body) == 0 || len(body)%ticketEntryLen != 0 {
				return 0, fmt.Errorf("%w: checkpoint ticket frame of %d bytes", ErrCorrupt, len(body))
			}
			for ; len(body) > 0; body = body[ticketEntryLen:] {
				t := parseTicket(body)
				if err := ord.ticket(t); err != nil {
					return 0, err
				}
				if err := sink.Ticket(t); err != nil {
					return 0, err
				}
			}
		case kindEnd:
			if len(body) != 16 || binary.LittleEndian.Uint64(body) != ord.lines || binary.LittleEndian.Uint64(body[8:]) != ord.tickets {
				return 0, fmt.Errorf("%w: checkpoint end frame does not match %d lines, %d tickets", ErrCorrupt, ord.lines, ord.tickets)
			}
			var extra [1]byte
			if _, err := io.ReadFull(br, extra[:]); err != io.EOF {
				return 0, fmt.Errorf("%w: bytes after the checkpoint end frame", ErrCorrupt)
			}
			return version, nil
		}
	}
}

// CheckpointInfo describes one checkpoint file.
type CheckpointInfo struct {
	Path    string
	Version uint64
	Bytes   int64
}

// Checkpoints lists the checkpoint files in dir, oldest first. It does not
// validate contents — LoadCheckpoint does that, and recovery walks the list
// newest-first until one loads.
func Checkpoints(dir string) ([]CheckpointInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read checkpoint dir: %w", err)
	}
	var out []CheckpointInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		v, ok := parseCkptName(e.Name())
		if !ok {
			continue
		}
		ci := CheckpointInfo{Path: filepath.Join(dir, e.Name()), Version: v}
		if st, err := e.Info(); err == nil {
			ci.Bytes = st.Size()
		}
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out, nil
}

// PruneCheckpoints removes all but the newest keep checkpoints, plus any
// stray .tmp husks from crashed writes. Returns the surviving checkpoints,
// oldest first.
func PruneCheckpoints(dir string, keep int) ([]CheckpointInfo, error) {
	if keep < 1 {
		keep = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			if _, ok := parseCkptName(strings.TrimSuffix(e.Name(), ".tmp")); ok {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	cks, err := Checkpoints(dir)
	if err != nil {
		return nil, err
	}
	removed := false
	for len(cks) > keep {
		if err := os.Remove(cks[0].Path); err != nil {
			return cks, fmt.Errorf("wal: prune checkpoint: %w", err)
		}
		cks = cks[1:]
		removed = true
	}
	if removed {
		if err := syncDir(dir); err != nil {
			return cks, err
		}
	}
	return cks, nil
}

func ckptName(version uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, version, ckptSuffix)
}

func parseCkptName(name string) (uint64, bool) {
	if len(name) != ckptNameLen || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(ckptPrefix):len(ckptPrefix)+20], 10, 64)
	return v, err == nil
}
