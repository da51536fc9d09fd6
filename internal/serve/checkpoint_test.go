package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nevermind/internal/data"
	"nevermind/internal/rng"
	"nevermind/internal/wal"
)

// fixtureStep is one ingest batch: exactly one of tests/tickets is set.
type fixtureStep struct {
	tests   []TestRecord
	tickets []TicketRecord
}

// format1Steps is the ingest history behind testdata/format2 (named for the
// format-1 fixture it was first written for): 20 lines (ids 1, 4, ..., 58)
// over weeks 40-42, each line skipping at most one week, line 22's week-41
// cell Missing, and per week a ticket batch whose last week also files a
// ticket on line 200, which never tests (a pending ticket). Six steps, so
// the store ends at version 6.
func format1Steps() []fixtureStep {
	var steps []fixtureStep
	for w := 40; w <= 42; w++ {
		var recs []TestRecord
		for i := 0; i < 20; i++ {
			if (i+w)%5 == 0 {
				continue
			}
			line := data.LineID(3*i + 1)
			if i == 7 && w == 41 {
				recs = append(recs, TestRecord{Line: line, Week: w, Missing: true})
				continue
			}
			f := make([]float32, data.NumBasicFeatures)
			for k := range f {
				f[k] = float32(w) + float32(i)*0.5 + float32(k)*0.01
			}
			recs = append(recs, TestRecord{
				Line: line, Week: w, F: f,
				Profile: uint8(i % len(data.Profiles)),
				DSLAM:   int32(i % 4),
				Usage:   float32(i%3) * 0.25,
			})
		}
		steps = append(steps, fixtureStep{tests: recs})
		var ts []TicketRecord
		for i := 0; i < 20; i += 6 {
			ts = append(ts, TicketRecord{
				ID: 100*w + i, Line: data.LineID(3*i + 1),
				Day: data.SaturdayOf(w) - 1 - i%3, Category: uint8(i % int(data.CatOther+1)),
			})
		}
		if w == 42 {
			ts = append(ts, TicketRecord{ID: 9999, Line: 200, Day: data.SaturdayOf(w), Category: uint8(data.CatOther)})
		}
		steps = append(steps, fixtureStep{tickets: ts})
	}
	return steps
}

// feedSteps ingests steps into s, one batch per step.
func feedSteps(t testing.TB, s *Store, steps []fixtureStep) {
	t.Helper()
	for i, st := range steps {
		var err error
		if st.tests != nil {
			_, err = s.IngestTests(st.tests)
		} else {
			_, err = s.IngestTickets(st.tickets)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// writeCkptBytes writes s's checkpoint into a fresh directory and returns
// the file's bytes.
func writeCkptBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	dir := t.TempDir()
	v, err := s.WriteCheckpoint(dir, 0)
	if err != nil || v != s.Version() {
		t.Fatalf("WriteCheckpoint: version %d (store at %d), %v", v, s.Version(), err)
	}
	cks, err := wal.Checkpoints(dir)
	if err != nil || len(cks) != 1 {
		t.Fatalf("Checkpoints: %+v, %v", cks, err)
	}
	b, err := os.ReadFile(cks[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertEmptyStore fails unless s holds nothing at all: no version, no
// watermarks, no line and no ticket in any shard.
func assertEmptyStore(t testing.TB, s *Store) {
	t.Helper()
	if s.Version() != 0 || s.LatestWeek() != -1 || s.GridLines() != 0 {
		t.Fatalf("store not empty: version %d, latest week %d, grid lines %d", s.Version(), s.LatestWeek(), s.GridLines())
	}
	for i := range s.shards {
		if sh := &s.shards[i]; len(sh.lines) != 0 || len(sh.tickets) != 0 || len(sh.dedup) != 0 {
			t.Fatalf("shard %d not empty: %d lines, %d tickets", i, len(sh.lines), len(sh.tickets))
		}
	}
}

// format2Fixture is the format-2 checkpoint a store fed format1Steps writes
// at version 6. It is committed so that the bytes are compared across
// commits, not only within one binary.
var format2Fixture = filepath.Join("testdata", "format2", "ckpt-00000000000000000006.ckpt")

// TestCheckpointFormat2Fixture pins the format-2 bytes: a store fed
// format1Steps writes exactly the committed file, restoring the file gives
// the directly fed store's content, and the restored store rewrites the
// same bytes. -update rewrites the file; a change that needs it changes the
// checkpoint format.
func TestCheckpointFormat2Fixture(t *testing.T) {
	fed := NewStore(4)
	feedSteps(t, fed, format1Steps())
	b := writeCkptBytes(t, fed)
	if *updateGolden {
		if err := os.WriteFile(format2Fixture, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(format2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("a store fed format1Steps writes %d bytes that differ from the %d-byte fixture", len(b), len(want))
	}
	got := NewStore(8)
	if v, err := got.LoadCheckpoint(format2Fixture); err != nil || v != 6 {
		t.Fatalf("format-2 fixture: version %d, %v", v, err)
	}
	assertSameContent(t, fed.Snapshot(), got.Snapshot())
	if !bytes.Equal(writeCkptBytes(t, got), want) {
		t.Fatal("the restored fixture rewrites different bytes")
	}
}

// TestCheckpointFixtureRestore restores the committed checkpoint and
// requires the store a client would see from feeding the same records
// directly: the same watermarks, the pending ticket (which no snapshot shows
// until its line tests) surfacing on the line's first test, and the same
// content when a WAL directory holding only the checkpoint recovers through
// OpenDurability.
func TestCheckpointFixtureRestore(t *testing.T) {
	want := NewStore(4)
	feedSteps(t, want, format1Steps())

	got := NewStore(8)
	v, err := got.LoadCheckpoint(format2Fixture)
	if err != nil {
		t.Fatalf("fixture does not load: %v", err)
	}
	if v != 6 || got.Version() != want.Version() {
		t.Fatalf("restored version %d (store %d), want %d", v, got.Version(), want.Version())
	}
	if got.LatestWeek() != want.LatestWeek() || got.GridLines() != want.GridLines() {
		t.Fatalf("watermarks: week %d/%d, grid lines %d/%d", got.LatestWeek(), want.LatestWeek(), got.GridLines(), want.GridLines())
	}
	first := []TestRecord{{Line: 200, Week: 42, F: []float32{1}}}
	for _, s := range []*Store{want, got} {
		if _, err := s.IngestTests(first); err != nil {
			t.Fatal(err)
		}
	}
	sn := got.Snapshot()
	assertSameContent(t, want.Snapshot(), sn)
	pending := 0
	for _, tk := range sn.DS.Tickets {
		if tk.Line == 200 {
			pending++
		}
	}
	if pending != 1 {
		t.Fatalf("line 200 shows %d tickets after its first test, want the pending one", pending)
	}

	dir := t.TempDir()
	b, err := os.ReadFile(format2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(format2Fixture)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, d := recoverStore(t, dir, DurabilityConfig{Sync: wal.SyncNever, CheckpointEvery: -1})
	defer d.Close()
	if rec := d.Recovery(); rec.CheckpointVersion != 6 || rec.SkippedCheckpoints != 0 {
		t.Fatalf("recovery over the checkpoint-only directory: %+v", rec)
	}
	fed := NewStore(4)
	feedSteps(t, fed, format1Steps())
	assertSameContent(t, fed.Snapshot(), s.Snapshot())
}

// TestCheckpointCorruptRejected damages the committed checkpoint: a flipped
// byte or a cut tail must not load, must leave the store empty, and the same
// store must then load the intact file. Gzip bytes, the retired format 1's
// framing, are not a checkpoint, and a restore never lands on top of
// existing state.
func TestCheckpointCorruptRejected(t *testing.T) {
	good, err := os.ReadFile(format2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	for name, b := range map[string][]byte{
		"flipped":   flipped,
		"truncated": good[:len(good)-10],
		"gzip":      {0x1f, 0x8b, 8, 0},
	} {
		s := NewStore(4)
		if _, err := s.ReadCheckpoint(bytes.NewReader(b)); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("%s checkpoint: %v, want wal.ErrCorrupt", name, err)
		}
		assertEmptyStore(t, s)
		if v, err := s.ReadCheckpoint(bytes.NewReader(good)); err != nil || v != 6 {
			t.Fatalf("%s: intact fixture on the same store: version %d, %v", name, v, err)
		}
	}
	s := NewStore(4)
	feedSteps(t, s, format1Steps()[:1])
	if _, err := s.LoadCheckpoint(format2Fixture); err == nil {
		t.Fatal("checkpoint restored into a non-empty store")
	}
}

// TestCheckpointBytesIdenticalAcrossShardsAndOrder pins that a checkpoint's
// bytes are a function of the state alone: stores of 1, 4 and 16 shards fed
// the same records in different batch and record orders write identical
// files.
func TestCheckpointBytesIdenticalAcrossShardsAndOrder(t *testing.T) {
	// 300 lines over weeks 30-37 at fixed attributes, each cell once; some
	// Missing; tickets unique, some pending on lines that never test.
	var tests []TestRecord
	for l := 0; l < 300; l++ {
		for w := 30; w < 38; w++ {
			if (l*7+w)%3 == 0 {
				continue
			}
			f := make([]float32, 1+(l+w)%data.NumBasicFeatures)
			for k := range f {
				f[k] = float32(l)*0.5 + float32(w) + float32(k)*0.125
			}
			tests = append(tests, TestRecord{
				Line: data.LineID(3 * l), Week: w, Missing: (l+w)%11 == 0, F: f,
				Profile: uint8(l % len(data.Profiles)), DSLAM: int32(l % 23), Usage: float32(l%9) * 0.1,
			})
		}
	}
	var tickets []TicketRecord
	for i := 0; i < 120; i++ {
		tickets = append(tickets, TicketRecord{
			ID: i, Line: data.LineID(5 * i), Day: 200 + i%30, Category: uint8(i % int(data.CatOther+1)),
		})
	}
	feed := func(shards int, seed uint64) *Store {
		r := rng.Derive(seed, 0xc4e7)
		s := NewStore(shards)
		const nTest, nTicket = 12, 5
		var steps []fixtureStep
		tp, kp := r.Perm(len(tests)), r.Perm(len(tickets))
		for b := 0; b < nTest; b++ {
			var st fixtureStep
			for i := b; i < len(tp); i += nTest {
				st.tests = append(st.tests, tests[tp[i]])
			}
			steps = append(steps, st)
		}
		for b := 0; b < nTicket; b++ {
			var st fixtureStep
			for i := b; i < len(kp); i += nTicket {
				st.tickets = append(st.tickets, tickets[kp[i]])
			}
			steps = append(steps, st)
		}
		order := r.Perm(len(steps))
		shuffled := make([]fixtureStep, len(steps))
		for i, j := range order {
			shuffled[j] = steps[i]
		}
		feedSteps(t, s, shuffled)
		return s
	}
	want := writeCkptBytes(t, feed(1, 1))
	for i, shards := range []int{4, 16} {
		if got := writeCkptBytes(t, feed(shards, uint64(i+2))); !bytes.Equal(got, want) {
			t.Fatalf("%d shards in another order wrote different bytes (%d vs %d)", shards, len(got), len(want))
		}
	}
	// The bytes restore to the same state on any shard count.
	s := NewStore(2)
	if _, err := s.ReadCheckpoint(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if got := writeCkptBytes(t, s); !bytes.Equal(got, want) {
		t.Fatal("restored store rewrites different bytes")
	}
	assertSameContent(t, feed(4, 9).Snapshot(), s.Snapshot())
}

// assertValidRestore checks a restored store against every invariant the
// loader promises: lines inside [0, MaxLineID) in their own shard, at least
// one seen week, each seen cell naming its line and week, attributes in
// range, tickets in range and in their line's shard, the dedup set matching
// the ticket list, and watermarks matching the content.
func assertValidRestore(t *testing.T, s *Store) {
	t.Helper()
	latest, maxLine := int64(-1), int64(-1)
	for i := range s.shards {
		sh := &s.shards[i]
		for l, ls := range sh.lines {
			if l < 0 || l >= MaxLineID || s.shardIndex(l) != i {
				t.Fatalf("line %d restored into shard %d", l, i)
			}
			if int(ls.profile) >= len(data.Profiles) || ls.dslam < 0 {
				t.Fatalf("line %d has profile %d, DSLAM %d", l, ls.profile, ls.dslam)
			}
			seen := 0
			for w := 0; w < data.Weeks; w++ {
				if ls.seen&(1<<w) == 0 {
					continue
				}
				seen++
				if m := *s.grid.At(l, w); m.Line != l || m.Week != w {
					t.Fatalf("line %d week %d holds a cell for line %d week %d", l, w, m.Line, m.Week)
				}
				latest = max(latest, int64(w))
			}
			if seen == 0 || ls.seen>>data.Weeks != 0 {
				t.Fatalf("line %d restored with weeks %b", l, ls.seen)
			}
			maxLine = max(maxLine, int64(l))
		}
		if len(sh.dedup) != len(sh.tickets) {
			t.Fatalf("shard %d: %d tickets, %d dedup keys", i, len(sh.tickets), len(sh.dedup))
		}
		for _, tk := range sh.tickets {
			if _, ok := sh.dedup[tk]; !ok || tk.Line < 0 || tk.Line >= MaxLineID || s.shardIndex(tk.Line) != i ||
				tk.Day < 0 || tk.Day >= data.DaysInYear || tk.Category > data.CatOther {
				t.Fatalf("shard %d holds bad ticket %+v", i, tk)
			}
		}
	}
	if s.Version() == 0 || int64(s.LatestWeek()) != latest || int64(s.GridLines())-1 != maxLine || s.grid.NumLines != s.GridLines() {
		t.Fatalf("restored version %d, latest week %d (content %d), grid lines %d (content max line %d)",
			s.Version(), s.LatestWeek(), latest, s.GridLines(), maxLine)
	}
}

// lineContent is one line's stored content: its attributes and the cells of
// the weeks it has seen.
type lineContent struct {
	profile uint8
	dslam   int32
	usage   float32
	tests   []data.Measurement
}

// storeState is a store's full content in canonical form, for comparing two
// stores of any shard counts.
func storeState(s *Store) (map[data.LineID]lineContent, []data.Ticket) {
	lines := make(map[data.LineID]lineContent)
	var tickets []data.Ticket
	for i := range s.shards {
		for l, ls := range s.shards[i].lines {
			c := lineContent{profile: ls.profile, dslam: ls.dslam, usage: ls.usage}
			for w := 0; w < data.Weeks; w++ {
				if ls.seen&(1<<w) != 0 {
					c.tests = append(c.tests, *s.grid.At(l, w))
				}
			}
			lines[l] = c
		}
		tickets = append(tickets, s.shards[i].tickets...)
	}
	sortTickets(tickets)
	return lines, tickets
}

func assertSameState(t *testing.T, a, b *Store) {
	t.Helper()
	la, ta := storeState(a)
	lb, tb := storeState(b)
	if a.Version() != b.Version() || !reflect.DeepEqual(la, lb) || !reflect.DeepEqual(ta, tb) {
		t.Fatalf("states differ: version %d/%d, %d/%d lines, %d/%d tickets", a.Version(), b.Version(), len(la), len(lb), len(ta), len(tb))
	}
}
