package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nevermind/internal/data"
	"nevermind/internal/sim"
	"nevermind/internal/wal"
)

// ingestSeeds is the seed corpus of both ingest fuzz targets: well-formed
// bodies, trailing data, out-of-range and malformed records, and non-object
// bodies.
var ingestSeeds = []string{
	`{"tests":[{"line":1,"week":40,"f":[1,2,3]}],"tickets":[{"id":1,"line":1,"day":274,"category":2}]}`,
	`{"tests":[{"line":1,"week":40}]}garbage`, // trailing-data regression
	`{"tests":[{"line":1,"week":40}]} {"tests":[]}`,
	`{"tests":[{"line":-1,"week":40}]}`,
	`{"tests":[{"line":1,"week":9999}]}`,
	`{"tests":[{"line":1,"week":40,"f":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]}]}`,
	`{"tickets":[{"id":1,"line":1,"day":-3}]}`,
	`{"tickets":[{"id":1,"line":1,"day":4,"category":255}]}`,
	`{"unknown_field":true}`,
	`[]`,
	`null`,
	``,
	`{"tests":`,
	`{"tests":[{"line":4194303,"week":51,"missing":true}]}`, // above MaxLineID: must reject
	`{"tests":[{"line":131071,"week":51,"missing":true}]}`,  // MaxLineID-1: widest legal grid
}

// perfbenchRecord is one test record and one ticket in the shape perfbench's
// ingest bodies have: every field present, 25 float32 features in shortest
// round-trip form ('g', 32 bits), so exponents appear.
const perfbenchRecord = `{"tests":[{"line":20117,"week":44,"f":[7.245,1.5e-05,0,3.1415927,-2.5,` +
	`0.33333334,12288,1e+06,6.0221e+23,0.001,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18],` +
	`"profile":2,"dslam":57,"usage":0.43}],"tickets":[{"id":9001,"line":20117,"day":305,"category":3}]}`

// FuzzIngestDecode holds ParseIngest to DecodeStrict on any bytes: both
// accept or both reject, with the same error text, and an accepted body
// decodes to the same values, nil slices and float bits included
// (reflect.DeepEqual would take -0 for 0). A fast-decoded body's spans must
// locate its records: joined as the gateway joins a shard's sub-body, they
// decode to the same records, on the fast grammar again. Decoding into an
// IngestBody that already holds another body, as a pooled request scratch
// does, must not change any of it, and the read-error replay must answer
// what an uncut replay answers. The piece decode, cut by the cut search
// with the fuzzed minimum piece size into up to eight pieces, must decode
// exactly what the serial parse does.
func FuzzIngestDecode(f *testing.F) {
	var seeds []string
	seeds = append(seeds, ingestSeeds...)
	seeds = append(seeds, pieceBodies...)
	seeds = append(seeds, perfbenchRecord)
	for _, tok := range float32Seeds {
		seeds = append(seeds, `{"tests":[{"line":1,"week":40,"f":[`+tok+`]}]}`,
			`{"tests":[{"line":1,"week":40,"usage":`+tok+`}]}`)
	}
	seeds = append(seeds,
		`{"tests":[{"line":2147483648,"week":40}]}`,
		`{"tests":[{"line":1,"week":40,"profile":256}]}`,
		`{"tests":[{"line":1,"week":40,"profile":-0}]}`,
		`{"tests":[{"line":1,"week":40,"f":null}]}`,
		`{"tests":[{"line":1,"week":40,"week":41}]}`,
		`{"tests":[{"Line":1,"week":40}]}`,
		`{"tests":[{"Line":1,"line":2,"week":40}]}`,
		`{"tests":[{"line":1,"week":40,"f":[]}],"tickets":[]}`,
		" {\"tickets\" : [ {} , {\"id\":-0} ] ,\n\"tests\":[{}]}\t")
	// Bodies cut off by a failed read, ending in whitespace runs.
	seeds = append(seeds, `{"tests":[]}   `, `{"tests":[   `, `{"tests":[1   `, "12  ", "tru  ", "\"ab  \n\n", "-  ")
	for i, s := range seeds {
		f.Add([]byte(s), uint16(1+i%23))
	}

	f.Fuzz(func(t *testing.T, body []byte, piece uint16) {
		// Were body all a read got before failing, IngestReadError (which
		// cuts trailing whitespace runs) answers what replaying all of it
		// answers.
		readErr := errors.New("read failed")
		var partial IngestRequest
		replayed := DecodeStrict(io.MultiReader(bytes.NewReader(body), errReader{readErr}), &partial)
		if got := IngestReadError(body, readErr); errText(got) != errText(replayed) {
			t.Fatalf("IngestReadError %q, replay %q", errText(got), errText(replayed))
		}

		cutParseMatchesSerial(t, body, int(piece))

		var want IngestRequest
		wantErr := DecodeStrict(bytes.NewReader(body), &want)
		got, err := ParseIngest(body)
		if errText(err) != errText(wantErr) {
			t.Fatalf("ParseIngest error %q, DecodeStrict error %q", errText(err), errText(wantErr))
		}
		if err != nil {
			return
		}
		sameIngest(t, "ParseIngest", &got.IngestRequest, &want)

		// A reused IngestBody must decode the same values.
		reused := new(IngestBody)
		if err := reused.Parse([]byte(perfbenchRecord)); err != nil {
			t.Fatal(err)
		}
		if err := reused.Parse(body); err != nil {
			t.Fatalf("reused IngestBody rejected what a fresh one accepted: %v", err)
		}
		sameIngest(t, "reused IngestBody", &reused.IngestRequest, &want)

		if !got.Spanned() {
			return
		}
		// The records' spans, joined as the gateway joins a shard's
		// sub-body, decode to the same records, and on the fast grammar.
		if len(got.TestSpans) != len(got.Tests) || len(got.TicketSpans) != len(got.Tickets) {
			t.Fatalf("%d/%d spans for %d/%d records",
				len(got.TestSpans), len(got.TicketSpans), len(got.Tests), len(got.Tickets))
		}
		joined := []byte{'{'}
		if got.Tests != nil {
			joined = appendSpans(append(joined, `"tests":`...), body, got.TestSpans)
		}
		if got.Tickets != nil {
			if got.Tests != nil {
				joined = append(joined, ',')
			}
			joined = appendSpans(append(joined, `"tickets":`...), body, got.TicketSpans)
		}
		joined = append(joined, '}')
		var rejoined IngestRequest
		if err := DecodeStrict(bytes.NewReader(joined), &rejoined); err != nil {
			t.Fatalf("spans joined to %q: %v", joined, err)
		}
		sameIngest(t, "records joined from their spans", &rejoined, &got.IngestRequest)
		if ib, err := ParseIngest(joined); err != nil || !ib.Spanned() {
			t.Fatalf("spans joined to %q leave the fast grammar (%v)", joined, err)
		}
	})
}

// cutParseMatchesSerial fails t unless the piece decode, with the cut
// search's minimum piece size at piece, decodes body exactly as the serial
// parse does: the same verdict, error text, records and spans.
func cutParseMatchesSerial(t *testing.T, body []byte, piece int) {
	t.Helper()
	serial, cut := new(IngestBody), new(IngestBody)
	wantErr := serial.decode(body, noCuts)
	err := cut.decode(body, func(dst []int, b []byte, start int) []int {
		return testCuts(dst, b, start, piece, 8)
	})
	sameDecode(t, fmt.Sprintf("pieces of %d", piece), cut, err, serial, wantErr)
}

// appendSpans appends the records at spans in body as one JSON array.
func appendSpans(dst, body []byte, spans []Span) []byte {
	dst = append(dst, '[')
	for i, sp := range spans {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, body[sp.Start:sp.End]...)
	}
	return append(dst, ']')
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameIngest fails t unless got and want hold the same decoded values: the
// same nil-ness and length of every slice, the same scalars, and the same
// bits in every float.
func sameIngest(t *testing.T, what string, got, want *IngestRequest) {
	t.Helper()
	if (got.Tests == nil) != (want.Tests == nil) || len(got.Tests) != len(want.Tests) {
		t.Fatalf("%s: tests %#v, want %#v", what, got.Tests, want.Tests)
	}
	if (got.Tickets == nil) != (want.Tickets == nil) || len(got.Tickets) != len(want.Tickets) {
		t.Fatalf("%s: tickets %#v, want %#v", what, got.Tickets, want.Tickets)
	}
	for i := range want.Tests {
		a, b := &got.Tests[i], &want.Tests[i]
		same := a.Line == b.Line && a.Week == b.Week && a.Missing == b.Missing &&
			a.Profile == b.Profile && a.DSLAM == b.DSLAM &&
			math.Float32bits(a.Usage) == math.Float32bits(b.Usage) &&
			(a.F == nil) == (b.F == nil) && len(a.F) == len(b.F)
		for k := 0; same && k < len(a.F); k++ {
			same = math.Float32bits(a.F[k]) == math.Float32bits(b.F[k])
		}
		if !same {
			t.Fatalf("%s: test %d %#v, want %#v", what, i, *a, *b)
		}
	}
	for i := range want.Tickets {
		if got.Tickets[i] != want.Tickets[i] {
			t.Fatalf("%s: ticket %d %+v, want %+v", what, i, got.Tickets[i], want.Tickets[i])
		}
	}
}

// TestParseIngestFastGrammar pins which bodies the fast grammar takes, so a
// change that quietly sends perfbench-shaped or gateway-forwarded bodies to
// the reflective decoder fails here rather than only in a benchmark.
func TestParseIngestFastGrammar(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{perfbenchRecord, true},
		{`{}`, true},
		{`{"tests":[],"tickets":[]}`, true},
		{`{"tests":[{"line":1,"week":40,"missing":true}]}`, true},
		{`{"tests":[{"line":1,"week":40,"f":[-0,1E+2,1e-50]}]}`, true},
		{`{"tests":null}`, false},
		{`{"tests":[{"line":1,"line":2}]}`, false},
		{`{"tests":[{"Line":1}]}`, false},
		{`{"tests":[{"line":1,"week":40,"f":[01]}]}`, false},
		{`{"tests":[{"line":1,"week":40,"f":[1e39]}]}`, false},
		{`{"tests":[],"tests":[]}`, false},
		{`{"tests":[]} `, true},
		{`{"tests":[]}x`, false},
	} {
		ib, err := ParseIngest([]byte(tc.body))
		if ib == nil {
			if tc.fast {
				t.Errorf("%s: rejected (%v)", tc.body, err)
			}
			continue
		}
		if ib.Spanned() != tc.fast {
			t.Errorf("%s: fast grammar %v, want %v", tc.body, ib.Spanned(), tc.fast)
		}
	}
}

// TestIngestRejectedBodyAppliesNothing: a body whose tests are valid but one
// of whose tickets is not is rejected whole by the daemon and by the
// pipeline's store backend. Both used to apply the tests before the tickets
// failed validation, so the 400 left version 1 behind.
func TestIngestRejectedBodyAppliesNothing(t *testing.T) {
	srv := newTestServer(t, Config{})
	ds, _, _ := fixture(t)
	tests, _ := recordsFor(ds, 40, 40)
	body := []byte(`{"tests":[` + testRecordJSON(t, tests[0]) + `,` + testRecordJSON(t, tests[1]) +
		`],"tickets":[{"id":1,"line":0,"day":-1,"category":0}]}`)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || rec.Body.String() != "{\"error\":\"bad batch: ticket 0: day -1 outside the year\"}\n" {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	if v, n := srv.Store().Version(), srv.Store().NumLines(); v != 0 || n != 0 {
		t.Fatalf("rejected ingest left version %d and %d lines", v, n)
	}

	batch := &sim.Batch{Week: 40, Tickets: []data.Ticket{{ID: 1, Line: 0, Day: -1}}}
	for _, r := range tests[:2] {
		m := data.Measurement{Line: r.Line, Week: r.Week, Missing: r.Missing}
		copy(m.F[:], r.F)
		batch.Tests = append(batch.Tests, sim.LineTest{M: m, Profile: r.Profile, DSLAM: r.DSLAM, Usage: r.Usage})
	}
	if _, err := (storeBackend{srv}).Ingest(t.Context(), batch); err == nil {
		t.Fatal("store backend accepted a batch with a bad ticket")
	}
	if v, n := srv.Store().Version(), srv.Store().NumLines(); v != 0 || n != 0 {
		t.Fatalf("rejected pipeline batch left version %d and %d lines", v, n)
	}
}

func testRecordJSON(t *testing.T, r TestRecord) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, `{"line":%d,"week":%d,"f":[`, r.Line, r.Week)
	for k, f := range r.F {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(float64(f), 'g', -1, 32))
	}
	fmt.Fprintf(&b, `],"profile":%d,"dslam":%d}`, r.Profile, r.DSLAM)
	return b.String()
}

// TestWALTicketRecordDeterministic: one ticket batch written through two
// fresh durable stores leaves identical WAL bytes. The store used to group
// a batch by shard in a map and range over it, so the ticket record listed
// its tickets in Go's random map order.
func TestWALTicketRecordDeterministic(t *testing.T) {
	var tickets []TicketRecord
	for i := 0; i < 64; i++ {
		tickets = append(tickets, TicketRecord{ID: i, Line: data.LineID(i * 7 % 200), Day: 100 + i, Category: uint8(i % int(data.CatOther+1))})
	}
	write := func() []byte {
		dir := t.TempDir()
		s := NewStore(8)
		d, err := OpenDurability(s, nil, DurabilityConfig{
			Dir: dir, Sync: wal.SyncNever, CheckpointEvery: -1, NoFinalCheckpoint: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.IngestTickets(tickets); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, %v", segs, err)
		}
		b, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := write()
	for try := 0; try < 5; try++ {
		if !bytes.Equal(write(), first) {
			t.Fatalf("try %d: the same ticket batch wrote different WAL bytes", try)
		}
	}
}
