package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math/bits"
	"net/url"
	"slices"
	"testing"

	"nevermind/internal/data"
)

// FuzzIngestJSON drives the decode-and-ingest path /v1/ingest uses —
// ParseIngest into an IngestRequest, the whole-body ValidateIngest, then
// both store ingest calls — with arbitrary bodies. It pins the hardening the
// fuzzer originally motivated:
//
//   - no panic and no store mutation on any malformed body;
//   - trailing data after the JSON value is rejected, not silently dropped
//     (`{"tests":[...]}garbage` used to ingest the prefix and say 200);
//   - a body that decodes but fails validation leaves the store untouched
//     (version unchanged), so a bad batch can never half-apply;
//   - ValidateIngest rejects exactly what the store's own validation
//     rejects, with the same error text, which is what lets the handler
//     validate the whole body before applying either half.
func FuzzIngestJSON(f *testing.F) {
	for _, s := range ingestSeeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		s := NewStore(2)
		ib, err := ParseIngest(body)
		if err != nil {
			// Rejected at decode: nothing may have been applied.
			if s.Version() != 0 {
				t.Fatalf("decode error but store version %d", s.Version())
			}
			return
		}
		req := &ib.IngestRequest
		verr := ValidateIngest(req)
		v0 := s.Version()
		nt, errT := s.IngestTests(req.Tests)
		if errT != nil {
			if errText(errT) != errText(verr) {
				t.Fatalf("IngestTests rejected with %q, ValidateIngest said %q", errT, errText(verr))
			}
			if s.Version() != v0 {
				t.Fatalf("IngestTests failed (%v) but bumped version", errT)
			}
			if nt != 0 {
				t.Fatalf("IngestTests failed (%v) but reported %d stored", errT, nt)
			}
			return
		}
		if nt != len(req.Tests) {
			t.Fatalf("IngestTests stored %d of %d valid records", nt, len(req.Tests))
		}
		v1 := s.Version()
		nk, errK := s.IngestTickets(req.Tickets)
		if errText(errK) != errText(verr) {
			t.Fatalf("IngestTickets said %q, ValidateIngest said %q", errText(errK), errText(verr))
		}
		if errK != nil {
			if s.Version() != v1 {
				t.Fatalf("IngestTickets failed (%v) but bumped version", errK)
			}
			return
		}
		// Everything accepted: every stored test record must be readable back
		// through a snapshot without panicking, and the snapshot must be
		// internally consistent.
		sn := s.Snapshot()
		if len(req.Tests) > 0 {
			if sn == nil {
				t.Fatal("accepted tests but snapshot is nil")
			}
			if sn.Version != s.Version() {
				t.Fatalf("snapshot version %d != store version %d", sn.Version, s.Version())
			}
			for _, r := range req.Tests {
				if !sn.Present[r.Week][r.Line] {
					t.Fatalf("accepted record (line %d, week %d) absent from snapshot", r.Line, r.Week)
				}
			}
			// The snapshot carries the subset of accepted tickets whose line
			// fits the grid — never more than were stored.
			if got := len(sn.DS.Tickets); got > nk {
				t.Fatalf("snapshot has %d tickets, only %d were stored", got, nk)
			}
		}
	})
}

// FuzzScoreDecode holds the /v1/score decoder to encoding/json: on any body,
// ParseScoreExamples (the gateway's entry) and parseScore into a reused
// buffer (the handler's pooled path) must each agree with DecodeStrict alone
// on accept or reject, on the error text, on every example, and on nil
// versus empty.
func FuzzScoreDecode(f *testing.F) {
	for _, s := range []string{
		`{"examples":[{"line":1,"week":40},{"week":41,"line":2}]}`,
		" {\"examples\" : [ { \"line\" : 3 ,\n\"week\" : 7 } ] }\t",
		`{"examples":[{"line":1,"line":2,"week":3}]}`,
		`{"examples":[{"line":1,"week":3,"week":4}]}`,
		`{"examples":[{"line":1}],"examples":[{"week":2}]}`,
		`null`, `{"examples":null}`, `{"examples":[null]}`, `{}`, `{"examples":[]}`, `{"examples":[{}]}`,
		`{"examples":[{"line":-0,"week":-0}]}`,
		`{"examples":[{"line":2147483647,"week":1}]}`,
		`{"examples":[{"line":2147483648,"week":1}]}`,
		`{"examples":[{"line":-2147483649,"week":1}]}`,
		`{"examples":[{"line":1.5,"week":1}]}`, `{"examples":[{"line":1,"week":1e1}]}`,
		`{"examples":[{"line":01,"week":1}]}`, `{"examples":[{"line":1,"week":99999999999999999999}]}`,
		`{"examples":[{"\u006cine":1,"week":1}]}`, `{"Examples":[{"LINE":1,"week":1}]}`,
		`{"examples":[{"line":1,"week":1}]}trailing`, `{"examples":[{"line":1,"week":1}]} {}`,
		`{"examples":[{"line":1,"week":1,"extra":0}]}`, `{"examples":[1]}`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var want struct {
			Examples []ScoreExample `json:"examples"`
		}
		wantErr := DecodeStrict(bytes.NewReader(body), &want)
		check := func(name string, got []ScoreExample, err error) {
			t.Helper()
			if errText(err) != errText(wantErr) {
				t.Fatalf("%s error %q, DecodeStrict error %q", name, errText(err), errText(wantErr))
			}
			if err == nil && ((got == nil) != (want.Examples == nil) || !slices.Equal(got, want.Examples)) {
				t.Fatalf("%s decoded %#v, DecodeStrict %#v", name, got, want.Examples)
			}
		}
		got, err := ParseScoreExamples(body)
		check("ParseScoreExamples", got, err)
		got, err = parseScore(body, make([]ScoreExample, 2, 8))
		check("pooled parseScore", got, err)
	})
}

// FuzzRankParams holds /v1/rank's query parsing to its contract: it either
// errors, or returns a week inside [0, data.Weeks) and n >= 1. No input may
// panic, be prefix-parsed, or be silently clamped into range.
func FuzzRankParams(f *testing.F) {
	f.Add("week=40&n=10")
	f.Add("week=40")
	f.Add("n=1")
	f.Add("")
	f.Add("week=-1")
	f.Add("week=52")
	f.Add("week=40.5")
	f.Add("week=40notanumber")
	f.Add("n=0")
	f.Add("n=-5")
	f.Add("n=99999999999999999999")
	f.Add("week=%zz")
	f.Add("week=40&week=51")

	f.Fuzz(func(t *testing.T, query string) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		week, n, err := ParseRankParams(q, 40, 10)
		if err != nil {
			return
		}
		if week < 0 || week >= data.Weeks {
			t.Fatalf("accepted week %d outside [0,%d) from %q", week, data.Weeks, query)
		}
		if n < 1 {
			t.Fatalf("accepted n %d < 1 from %q", n, query)
		}
	})
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint loader the
// daemon, nevermindwal verify and the replica bootstrap share
// (Store.ReadCheckpoint: wal decode, then seat into fresh shards). On any
// bytes it must either restore a state that passes every restore check — and
// writes a checkpoint that loads back to the same state — or fail and leave
// the store empty. A healthy format-2 file that has been cut short, had one
// bit flipped, or been extended never restores, nor do gzip bytes.
func FuzzCheckpointDecode(f *testing.F) {
	src := NewStore(4)
	feedSteps(f, src, format1Steps())
	healthy := writeCkptBytes(f, src)
	f.Add(healthy)
	// Truncations at every frame boundary and a few bytes past each.
	var frames []int
	for off := 20; off+8 <= len(healthy); off += 8 + int(binary.LittleEndian.Uint32(healthy[off:])) {
		frames = append(frames, off)
	}
	for _, off := range frames {
		f.Add(healthy[:off])
		f.Add(healthy[:off+5])
	}
	// Bit flips in the header (magic, format, version), the first frame's
	// length and CRC, a version-frame payload byte, and a line-frame payload
	// byte.
	line := frames[1]
	for _, off := range []int{0, 8, 12, frames[0], frames[0] + 4, frames[0] + 9, line + 8 + 30} {
		b := append([]byte(nil), healthy...)
		b[off] ^= 0x04
		f.Add(b)
	}
	f.Add(append(append([]byte(nil), healthy...), 0))
	f.Add([]byte("NVMCKPT2 but not really a checkpoint"))
	// Gzip bytes, as format 1 was, are not a checkpoint: a bare gzip header,
	// and a whole gzip stream of the healthy file.
	f.Add([]byte{0x1f, 0x8b, 0, 0})
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(healthy); err != nil || zw.Close() != nil {
		f.Fatal("gzip seed")
	}
	f.Add(gz.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		s := NewStore(2)
		v, err := s.ReadCheckpoint(bytes.NewReader(b))
		if err != nil {
			assertEmptyStore(t, s)
			return
		}
		if damagedCopy(b, healthy) {
			t.Fatalf("a truncated, bit-flipped or extended healthy checkpoint restored (%d bytes vs %d)", len(b), len(healthy))
		}
		if bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Fatal("gzip bytes restored as a checkpoint")
		}
		if v != s.Version() {
			t.Fatalf("loader returned version %d, store at %d", v, s.Version())
		}
		assertValidRestore(t, s)
		again := NewStore(4)
		if _, err := again.ReadCheckpoint(bytes.NewReader(writeCkptBytes(t, s))); err != nil {
			t.Fatalf("restored state writes a checkpoint that does not load: %v", err)
		}
		assertSameState(t, s, again)
	})
}

// damagedCopy reports whether b is healthy cut short, extended, or with
// exactly one bit flipped.
func damagedCopy(b, healthy []byte) bool {
	switch {
	case len(b) < len(healthy):
		return bytes.HasPrefix(healthy, b)
	case len(b) > len(healthy):
		return bytes.HasPrefix(b, healthy)
	}
	flipped := 0
	for i := range b {
		flipped += bits.OnesCount8(b[i] ^ healthy[i])
	}
	return flipped == 1
}
