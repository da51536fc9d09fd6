package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"nevermind/internal/data"
)

// testRecord builds a deterministic record for version v, alternating test
// and ticket batches so both codecs are exercised.
func testRecord(v uint64) *Record {
	if v%3 == 0 {
		return &Record{
			Version: v,
			Op:      OpTickets,
			Tickets: []data.Ticket{
				{ID: int(v*10 + 1), Line: data.LineID(v % 500), Day: int(v % data.DaysInYear), Category: data.TicketCategory(v % uint64(data.CatOther+1))},
				{ID: int(v*10 + 2), Line: data.LineID((v + 7) % 500), Day: int((v + 3) % data.DaysInYear), Category: 0},
			},
		}
	}
	nf := int(v % (data.NumBasicFeatures + 1))
	var f []float32
	if nf > 0 {
		f = make([]float32, nf)
		for i := range f {
			f[i] = float32(v)*0.25 + float32(i)
		}
	}
	return &Record{
		Version: v,
		Op:      OpTests,
		Tests: []TestRec{
			{Line: data.LineID(v % 800), Week: int(v % data.Weeks), Missing: v%5 == 0, Profile: uint8(v % uint64(len(data.Profiles))), DSLAM: int32(v % 40), Usage: float32(v) * 0.5, F: f},
		},
	}
}

func appendAll(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for v := from; v <= to; v++ {
		if err := l.Append(testRecord(v)); err != nil {
			t.Fatalf("append v%d: %v", v, err)
		}
	}
}

func replayAll(t *testing.T, dir string, from uint64) []*Record {
	t.Helper()
	var got []*Record
	n, err := Replay(dir, from, func(r *Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay from %d: %v", from, err)
	}
	if n != len(got) {
		t.Fatalf("replay reported %d applied, callback saw %d", n, len(got))
	}
	return got
}

func TestRecordRoundTrip(t *testing.T) {
	for v := uint64(1); v <= 60; v++ {
		r := testRecord(v)
		payload, err := appendRecord(nil, r)
		if err != nil {
			t.Fatalf("encode v%d: %v", v, err)
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decode v%d: %v", v, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("v%d round trip mismatch:\n  in  %+v\n  out %+v", v, r, got)
		}
	}
}

func TestAppendReplayRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	l, info, err := Open(dir, Options{SegmentBytes: 256, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion != 0 || info.Records != 0 {
		t.Fatalf("fresh dir reported %+v", info)
	}
	appendAll(t, l, 1, 100)
	if got := l.LastVersion(); got != 100 {
		t.Fatalf("LastVersion = %d, want 100", got)
	}
	if segs := l.Segments(); len(segs) < 4 {
		t.Fatalf("expected many segments at 256-byte rotation, got %d", len(segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir, 0)
	if len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
	for i, r := range got {
		want := testRecord(uint64(i + 1))
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d mismatch:\n  got  %+v\n  want %+v", i, r, want)
		}
	}

	// Partial replay from mid-chain.
	if got := replayAll(t, dir, 73); len(got) != 27 || got[0].Version != 74 {
		t.Fatalf("replay from 73: %d records, first %d", len(got), got[0].Version)
	}
	// Replay from exactly the tail: nothing.
	if got := replayAll(t, dir, 100); len(got) != 0 {
		t.Fatalf("replay from tail returned %d records", len(got))
	}
}

func TestReopenContinuesChain(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 512, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 20)
	l.Close()

	l2, info, err := Open(dir, Options{SegmentBytes: 512, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion != 20 || info.Records != 20 || info.TruncatedBytes != 0 {
		t.Fatalf("reopen info %+v", info)
	}
	// Contiguity is enforced across the reopen.
	if err := l2.Append(testRecord(25)); err == nil {
		t.Fatal("append v25 after v20 succeeded; want contiguity error")
	}
	appendAll(t, l2, 21, 40)
	l2.Close()
	if got := replayAll(t, dir, 0); len(got) != 40 {
		t.Fatalf("replayed %d, want 40", len(got))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 1 << 20, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 10)
	l.Close()
	segs, _ := segNames(dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	path := filepath.Join(dir, segs[0])
	st, _ := os.Stat(path)
	// Chop the last 5 bytes: record 10's frame is torn.
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2, info, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion != 9 || info.Records != 9 {
		t.Fatalf("after torn tail: %+v", info)
	}
	if info.TruncatedBytes == 0 {
		t.Fatal("TruncatedBytes not reported")
	}
	// The log must accept v10 again (re-ingest after crash).
	appendAll(t, l2, 10, 12)
	l2.Close()
	if got := replayAll(t, dir, 0); len(got) != 12 || got[11].Version != 12 {
		t.Fatalf("post-repair replay: %d records", len(got))
	}
}

func TestGarbageAppendTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 5)
	l.Close()
	segs, _ := segNames(dir)
	f, err := os.OpenFile(filepath.Join(dir, segs[0]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("this is not a wal frame at all, just noise past the tail"))
	f.Close()

	_, info, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion != 5 || info.Records != 5 || info.TruncatedBytes == 0 {
		t.Fatalf("garbage tail: %+v", info)
	}
}

func TestBitFlipEndsChain(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 300, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 50)
	l.Close()
	segs, _ := segNames(dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Flip one payload byte in the middle segment: its tail and every later
	// segment become unreachable.
	mid := filepath.Join(dir, segs[len(segs)/2])
	b, _ := os.ReadFile(mid)
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(mid, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, info, err := Open(dir, Options{SegmentBytes: 300, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion == 0 || info.LastVersion >= 50 {
		t.Fatalf("bit flip: LastVersion = %d, want in (0,50)", info.LastVersion)
	}
	if info.DroppedSegments == 0 {
		t.Fatal("expected later segments dropped")
	}
	// Replay agrees with repair, and the chain continues from there.
	got := replayAll(t, dir, 0)
	if uint64(len(got)) != info.LastVersion {
		t.Fatalf("replay %d records, repair says %d", len(got), info.LastVersion)
	}
	appendAll(t, l2, info.LastVersion+1, 60)
	l2.Close()
	if got := replayAll(t, dir, 0); got[len(got)-1].Version != 60 {
		t.Fatalf("chain tail %d after re-append", got[len(got)-1].Version)
	}
}

func TestReplayGapRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Chain starts at 10 (log opened after a checkpoint at 9).
	appendAll(t, l, 10, 15)
	l.Close()
	// Asking for records past version 5 would need 6..9, which don't exist.
	if _, err := Replay(dir, 5, func(*Record) error { return nil }); err == nil {
		t.Fatal("replay across a junction gap succeeded; want error")
	}
	// From 9 the chain is contiguous.
	if got := replayAll(t, dir, 9); len(got) != 6 {
		t.Fatalf("replay from 9: %d records, want 6", len(got))
	}
}

func TestResetAndTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 300, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 40)
	nseg := len(l.Segments())
	if nseg < 3 {
		t.Fatalf("need ≥3 segments, got %d", nseg)
	}
	// Truncate through v of the first segment's tail: first segment goes.
	v := l.Segments()[0].LastVersion
	n, err := l.TruncateThrough(v)
	if err != nil || n != 1 {
		t.Fatalf("TruncateThrough(%d) = %d, %v", v, n, err)
	}
	// Replay from v still works (chain now starts at v+1).
	if got := replayAll(t, dir, v); got[0].Version != v+1 {
		t.Fatalf("post-truncate replay starts at %d", got[0].Version)
	}

	// Reset wipes everything and pins the next version.
	if err := l.Reset(99); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(50)); err == nil {
		t.Fatal("append v50 after Reset(99) succeeded")
	}
	appendAll(t, l, 100, 105)
	l.Close()
	if got := replayAll(t, dir, 99); len(got) != 6 || got[0].Version != 100 {
		t.Fatalf("post-reset replay: %d records from %d", len(got), got[0].Version)
	}
}

// ckptState is a checkpoint's content as the loader hands it over.
type ckptState struct {
	Lines   []CheckpointLine
	Tickets []data.Ticket
}

// Line and Ticket make *ckptState a CheckpointSink that copies what it gets.
func (c *ckptState) Line(l *CheckpointLine) error {
	cp := *l
	cp.Tests = append([]data.Measurement(nil), l.Tests...)
	c.Lines = append(c.Lines, cp)
	return nil
}

func (c *ckptState) Ticket(t data.Ticket) error {
	c.Tickets = append(c.Tickets, t)
	return nil
}

// testCkptState builds a canonical state of n lines from seed v: every
// other line holds three weeks (one Missing), the rest one; one ticket per
// five lines, plus one pending on a line with no test.
func testCkptState(v uint64, n int) *ckptState {
	st := &ckptState{}
	for i := 0; i < n; i++ {
		l := CheckpointLine{Line: data.LineID(2*i + 1), Profile: uint8(i % len(data.Profiles)), DSLAM: int32(i % 40), Usage: float32(v) + 0.5}
		weeks := []int{40}
		if i%2 == 0 {
			weeks = []int{30, 31, 45}
		}
		for j, w := range weeks {
			m := data.Measurement{Line: l.Line, Week: w, Missing: j == 1}
			for k := range m.F {
				m.F[k] = float32(v)*0.25 + float32(i) + float32(k)*0.01
			}
			l.Tests = append(l.Tests, m)
		}
		st.Lines = append(st.Lines, l)
	}
	for i := 0; i < n; i += 5 {
		st.Tickets = append(st.Tickets, data.Ticket{ID: int(v)*1000 + i, Line: data.LineID(2*i + 1), Day: 280 + i%7, Category: data.TicketCategory(i % int(data.CatOther+1))})
	}
	st.Tickets = append(st.Tickets, data.Ticket{ID: 7, Line: 2 * data.LineID(n), Day: 300})
	sort.Slice(st.Tickets, func(a, b int) bool { return data.TicketLess(st.Tickets[a], st.Tickets[b]) })
	return st
}

func writeTestCheckpoint(t *testing.T, dir string, v uint64, st *ckptState) {
	t.Helper()
	cw, err := CreateCheckpoint(dir, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Lines {
		if err := cw.Line(&st.Lines[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range st.Tickets {
		if err := cw.Ticket(tk); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	for v := uint64(10); v <= 30; v += 10 {
		writeTestCheckpoint(t, dir, v, testCkptState(v, 50))
	}
	cks, err := Checkpoints(dir)
	if err != nil || len(cks) != 3 {
		t.Fatalf("Checkpoints: %d, %v", len(cks), err)
	}
	var got ckptState
	v, err := LoadCheckpoint(cks[2].Path, &got)
	if err != nil || v != 30 || !reflect.DeepEqual(&got, testCkptState(30, 50)) {
		t.Fatalf("load newest: v=%d err=%v state=%+v", v, err, got)
	}

	// Corrupt the newest: recovery must fall back to v20.
	b, _ := os.ReadFile(cks[2].Path)
	b[len(b)/2] ^= 0xff
	os.WriteFile(cks[2].Path, b, 0o644)
	if _, err := LoadCheckpoint(cks[2].Path, &ckptState{}); err == nil {
		t.Fatal("corrupt checkpoint loaded cleanly")
	}
	got = ckptState{}
	v, err = LoadCheckpoint(cks[1].Path, &got)
	if err != nil || v != 20 || !reflect.DeepEqual(&got, testCkptState(20, 50)) {
		t.Fatalf("fallback load: v=%d err=%v", v, err)
	}

	// Prune keeps the newest two (including the corrupt one — pruning is
	// name-based; validity is recovery's concern).
	kept, err := PruneCheckpoints(dir, 2)
	if err != nil || len(kept) != 2 || kept[0].Version != 20 {
		t.Fatalf("prune: %+v, %v", kept, err)
	}
}

func TestCheckpointTruncatedFileRejected(t *testing.T) {
	dir := t.TempDir()
	writeTestCheckpoint(t, dir, 7, testCkptState(7, 4000)) // many frames
	cks, _ := Checkpoints(dir)
	b, _ := os.ReadFile(cks[0].Path)
	os.WriteFile(cks[0].Path, b[:len(b)-10], 0o644)
	if _, err := LoadCheckpoint(cks[0].Path, &ckptState{}); err == nil {
		t.Fatal("truncated checkpoint loaded cleanly")
	}
}

func TestInspectMatchesRepair(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 300, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 30)
	l.Close()
	// Tear the final segment.
	segs, _ := segNames(dir)
	last := filepath.Join(dir, segs[len(segs)-1])
	st, _ := os.Stat(last)
	os.Truncate(last, st.Size()-3)

	ds, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.FirstVersion != 1 {
		t.Fatalf("Inspect FirstVersion = %d", ds.FirstVersion)
	}
	tornSeen := false
	for _, s := range ds.Segments {
		if s.TornBytes > 0 {
			tornSeen = true
		}
	}
	if !tornSeen {
		t.Fatal("Inspect missed the torn tail")
	}
	// Inspect is read-only: repair afterwards must agree with its count.
	_, info, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion != ds.LastVersion || info.Records != ds.Records {
		t.Fatalf("Inspect (v%d, %d recs) disagrees with repair (v%d, %d recs)",
			ds.LastVersion, ds.Records, info.LastVersion, info.Records)
	}
}

func TestSyncAlwaysAndObserver(t *testing.T) {
	dir := t.TempDir()
	syncs := 0
	l, _, err := Open(dir, Options{Sync: SyncAlways, FsyncObserver: func(time.Duration) { syncs++ }})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 5)
	if syncs < 5 {
		t.Fatalf("SyncAlways observed %d fsyncs for 5 appends", syncs)
	}
	l.Close()
}

func TestBrokenLogFreezes(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 3)
	// Yank the file out from under the log: the next synced append fails
	// and every append after that returns the same sticky error.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	var firstErr error
	for v := uint64(4); v <= 6; v++ {
		if err := l.Append(testRecord(v)); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Skip("writes to closed file did not fail on this platform")
	}
	if err := l.Append(testRecord(7)); err == nil {
		t.Fatal("append after freeze succeeded")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil on frozen log")
	}
	l.Abort()
}
