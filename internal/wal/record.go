// Package wal is the durability subsystem's storage layer: a per-store
// write-ahead log of ingest batches plus periodic full-store checkpoints.
// The log is a directory of append-only segment files holding CRC-framed,
// versioned records; checkpoints are uncompressed files of CRC-framed
// binary line and ticket records in the same frames (see checkpoint.go),
// written atomically beside the segments.
// Recovery loads the newest valid checkpoint and replays the contiguous WAL
// tail past it; a torn or corrupt tail is truncated at the first invalid
// record, never replayed.
//
// The package knows nothing about the serving store: records carry the wire
// shapes (test batches, ticket batches) and the store version each batch
// produced, and the owner decides how to apply them. The segment format is
// also the shipping format a follower will consume for catch-up replication
// (ROADMAP item 1): a segment is a self-delimiting stream of versioned
// batches, safe to cut at any record boundary.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"nevermind/internal/data"
)

// Op says what a record's payload holds. A record carries exactly one batch
// kind because the store bumps its version once per applied batch; replaying
// record N therefore reproduces version N exactly.
type Op uint8

const (
	// OpTests is a batch of weekly line-test records.
	OpTests Op = 1
	// OpTickets is a batch of newly added customer tickets (post-dedup: the
	// store logs only the tickets the batch actually added).
	OpTickets Op = 2
)

// TestRec mirrors the serving store's test-record wire shape. It is
// duplicated here rather than imported so the WAL has no dependency on the
// serving layer (serve imports wal, not the reverse).
type TestRec struct {
	Line    data.LineID
	Week    int
	Missing bool
	Profile uint8
	DSLAM   int32
	Usage   float32
	F       []float32
}

// Record is one logged ingest batch: the store version it produced and the
// applied records. Exactly one of Tests/Tickets is populated, per Op.
type Record struct {
	Version uint64
	Op      Op
	Tests   []TestRec
	Tickets []data.Ticket
}

// ErrCorrupt marks bytes that do not decode to a valid record: bad framing,
// CRC mismatch, out-of-range field values, or trailing garbage. Recovery
// treats the first corrupt record as the end of the log.
var ErrCorrupt = errors.New("wal: corrupt record")

// MaxRecordBytes bounds one record's payload. The largest legitimate batch
// (a full weekly ingest for the store's maximum population) is ~20 MB; a
// frame claiming more than this is garbage, not data, and rejecting it keeps
// a corrupt length field from driving a huge allocation.
const MaxRecordBytes = 64 << 20

// crcTable is Castagnoli, the polynomial with hardware support on amd64 and
// arm64 — the framing checksum is on the ingest hot path.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Fixed entry sizes (bytes) before variable parts.
const (
	recHeaderLen   = 8 + 1 + 4 // version + op + count
	testEntryFixed = 4 + 1 + 1 + 1 + 1 + 4 + 4
	ticketEntryLen = 8 + 4 + 4 + 1
)

// appendRecord serialises r's payload (no framing) onto buf and returns the
// extended slice. The encoding is little-endian and fixed-width per field,
// so the decoder can bounds-check every entry before allocating.
func appendRecord(buf []byte, r *Record) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, r.Version)
	buf = append(buf, byte(r.Op))
	switch r.Op {
	case OpTests:
		if len(r.Tests) == 0 {
			return nil, fmt.Errorf("wal: empty test batch at version %d", r.Version)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Tests)))
		for i := range r.Tests {
			t := &r.Tests[i]
			if len(t.F) > data.NumBasicFeatures {
				return nil, fmt.Errorf("wal: test record carries %d features, max %d", len(t.F), data.NumBasicFeatures)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Line))
			var flags byte
			if t.Missing {
				flags |= 1
			}
			buf = append(buf, byte(t.Week), flags, t.Profile, byte(len(t.F)))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t.DSLAM))
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(t.Usage))
			for _, f := range t.F {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
			}
		}
	case OpTickets:
		if len(r.Tickets) == 0 {
			return nil, fmt.Errorf("wal: empty ticket batch at version %d", r.Version)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Tickets)))
		for _, t := range r.Tickets {
			buf = appendTicket(buf, t)
		}
	default:
		return nil, fmt.Errorf("wal: unknown op %d", r.Op)
	}
	return buf, nil
}

// appendTicket serialises one ticket entry, the fixed-width layout WAL
// records and checkpoints share: u64 ID | u32 line | u32 day | u8 category.
func appendTicket(buf []byte, t data.Ticket) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Line))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Day))
	return append(buf, byte(t.Category))
}

// parseTicket reads the ticket entry at the front of b (at least
// ticketEntryLen bytes); ticketFieldErr range-checks it.
func parseTicket(b []byte) data.Ticket {
	return data.Ticket{
		ID:       int(int64(binary.LittleEndian.Uint64(b))),
		Line:     data.LineID(int32(binary.LittleEndian.Uint32(b[8:]))),
		Day:      int(int32(binary.LittleEndian.Uint32(b[12:]))),
		Category: data.TicketCategory(b[16]),
	}
}

// ticketFieldErr range-checks a ticket against the data model. The error
// names the bad field; callers add the context.
func ticketFieldErr(t data.Ticket) error {
	switch {
	case t.Line < 0:
		return errors.New("has negative line")
	case t.Day < 0 || t.Day >= data.DaysInYear:
		return fmt.Errorf("has day %d", t.Day)
	case t.Category > data.CatOther:
		return fmt.Errorf("has category %d", t.Category)
	}
	return nil
}

// decodeRecord parses one payload back into a Record. Every field is
// range-checked against the data-model bounds, so a record that decodes is
// safe to hand to the store: a corrupt batch can fail the CRC, fail here, or
// fail nowhere — it cannot be replayed.
func decodeRecord(payload []byte) (*Record, error) {
	if len(payload) < recHeaderLen {
		return nil, fmt.Errorf("%w: payload %d bytes, header needs %d", ErrCorrupt, len(payload), recHeaderLen)
	}
	r := &Record{
		Version: binary.LittleEndian.Uint64(payload),
		Op:      Op(payload[8]),
	}
	count := int(binary.LittleEndian.Uint32(payload[9:]))
	rest := payload[recHeaderLen:]
	if r.Version == 0 {
		return nil, fmt.Errorf("%w: version 0", ErrCorrupt)
	}
	if count == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrCorrupt)
	}
	switch r.Op {
	case OpTests:
		if count*testEntryFixed > len(rest) {
			return nil, fmt.Errorf("%w: %d test entries cannot fit %d bytes", ErrCorrupt, count, len(rest))
		}
		r.Tests = make([]TestRec, 0, count)
		for i := 0; i < count; i++ {
			if len(rest) < testEntryFixed {
				return nil, fmt.Errorf("%w: truncated test entry %d", ErrCorrupt, i)
			}
			t := TestRec{
				Line:  data.LineID(int32(binary.LittleEndian.Uint32(rest))),
				Week:  int(rest[4]),
				DSLAM: int32(binary.LittleEndian.Uint32(rest[8:])),
				Usage: math.Float32frombits(binary.LittleEndian.Uint32(rest[12:])),
			}
			flags, nf := rest[5], int(rest[7])
			t.Missing = flags&1 != 0
			t.Profile = rest[6]
			rest = rest[testEntryFixed:]
			switch {
			case flags&^byte(1) != 0:
				return nil, fmt.Errorf("%w: test entry %d has unknown flags %#x", ErrCorrupt, i, flags)
			case t.Line < 0:
				return nil, fmt.Errorf("%w: test entry %d has negative line", ErrCorrupt, i)
			case t.Week >= data.Weeks:
				return nil, fmt.Errorf("%w: test entry %d has week %d", ErrCorrupt, i, t.Week)
			case int(t.Profile) >= len(data.Profiles):
				return nil, fmt.Errorf("%w: test entry %d has profile %d", ErrCorrupt, i, t.Profile)
			case t.DSLAM < 0:
				return nil, fmt.Errorf("%w: test entry %d has negative DSLAM", ErrCorrupt, i)
			case nf > data.NumBasicFeatures:
				return nil, fmt.Errorf("%w: test entry %d claims %d features", ErrCorrupt, i, nf)
			case len(rest) < nf*4:
				return nil, fmt.Errorf("%w: truncated feature vector in entry %d", ErrCorrupt, i)
			}
			if nf > 0 {
				t.F = make([]float32, nf)
				for j := 0; j < nf; j++ {
					t.F[j] = math.Float32frombits(binary.LittleEndian.Uint32(rest[j*4:]))
				}
				rest = rest[nf*4:]
			}
			r.Tests = append(r.Tests, t)
		}
	case OpTickets:
		if count*ticketEntryLen != len(rest) {
			return nil, fmt.Errorf("%w: %d ticket entries need %d bytes, have %d",
				ErrCorrupt, count, count*ticketEntryLen, len(rest))
		}
		r.Tickets = make([]data.Ticket, 0, count)
		for i := 0; i < count; i++ {
			t := parseTicket(rest)
			if err := ticketFieldErr(t); err != nil {
				return nil, fmt.Errorf("%w: ticket entry %d %v", ErrCorrupt, i, err)
			}
			rest = rest[ticketEntryLen:]
			r.Tickets = append(r.Tickets, t)
		}
		rest = nil
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrCorrupt, r.Op)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrCorrupt, len(rest))
	}
	return r, nil
}
