package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Replication stream layout — the wire format a leader ships WAL records in
// (GET /v1/repl/wal). It reuses the segment record framing so a follower
// validates exactly what recovery validates:
//
//	[20-byte header: 8-byte magic "NVMREPL1" | u32 format | u64 leader version]
//	[record frame]*
//
// Record frame (identical to the segment format):
//
//	[u32 payload length | u32 CRC32-C of payload | payload]
//
// The header's leader version is the durable log tail at stream start; the
// follower derives its lag from it. A stream may end at any frame boundary
// (the leader caps records per response; the follower just polls again from
// its new applied version). Ending mid-frame is torn — the follower discards
// the partial frame and re-polls; nothing invalid ever reaches the store.

const (
	streamMagic  = "NVMREPL1"
	streamFormat = 1
	// StreamHeaderLen is the byte length of the stream header.
	StreamHeaderLen = 20
)

// StreamWriter frames WAL records onto a replication stream.
type StreamWriter struct {
	w     io.Writer
	frame []byte
}

// NewStreamWriter writes the stream header carrying the leader's current
// durable version and returns a writer for the record frames.
func NewStreamWriter(w io.Writer, leaderVersion uint64) (*StreamWriter, error) {
	hdr := make([]byte, StreamHeaderLen)
	copy(hdr, streamMagic)
	binary.LittleEndian.PutUint32(hdr[8:], streamFormat)
	binary.LittleEndian.PutUint64(hdr[12:], leaderVersion)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("wal: write stream header: %w", err)
	}
	return &StreamWriter{w: w}, nil
}

// WriteRecord frames and writes one record.
func (sw *StreamWriter) WriteRecord(r *Record) error {
	frame, err := appendRecord(beginFrame(sw.frame), r)
	if err != nil {
		return err
	}
	sw.frame = frame[:0]
	if len(frame)-frameLen > MaxRecordBytes {
		return fmt.Errorf("wal: record payload %d bytes exceeds limit %d", len(frame)-frameLen, MaxRecordBytes)
	}
	sealFrame(frame)
	if _, err := sw.w.Write(frame); err != nil {
		return fmt.Errorf("wal: write stream frame: %w", err)
	}
	return nil
}

// StreamReader decodes a replication stream. It validates framing, CRC, and
// full record contents (via the segment decoder), so every record it returns
// is safe to hand to the store; anything else surfaces as an error before any
// bytes of it escape.
type StreamReader struct {
	r             io.Reader
	leaderVersion uint64
	payload       []byte
}

// NewStreamReader reads and validates the stream header.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	hdr := make([]byte, StreamHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: stream header truncated", ErrCorrupt)
	}
	if string(hdr[:8]) != streamMagic {
		return nil, fmt.Errorf("%w: bad stream magic", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(hdr[8:]) != streamFormat {
		return nil, fmt.Errorf("%w: unknown stream format", ErrCorrupt)
	}
	return &StreamReader{r: r, leaderVersion: binary.LittleEndian.Uint64(hdr[12:])}, nil
}

// LeaderVersion returns the leader's durable version at stream start.
func (sr *StreamReader) LeaderVersion() uint64 { return sr.leaderVersion }

// Next returns the next record, io.EOF at a clean frame boundary, or a
// wrapped ErrCorrupt for anything torn or invalid.
func (sr *StreamReader) Next() (*Record, error) {
	payload, err := readFrame(sr.r, sr.payload, recHeaderLen, MaxRecordBytes)
	if err != nil {
		return nil, err
	}
	sr.payload = payload
	return decodeRecord(payload)
}

// IsCorrupt reports whether err marks invalid stream bytes (as opposed to a
// clean EOF or a transport error).
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }
