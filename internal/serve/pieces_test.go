package serve

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"nevermind/internal/data"
)

// pieceBodies are small /v1/ingest bodies for the piece decode: tickets
// before and after the tests, empty arrays, whitespace around record
// commas, ticket objects the test grammar also takes, `},{` inside a
// record and inside a key, bodies the fast grammar rejects for DecodeStrict
// to phrase, and escaped keys.
var pieceBodies = []string{
	`{"tests":[{"line":1,"week":40,"f":[1,2.5,-3e-2]},{"line":2,"week":40,"missing":true},{"line":3,"week":41,"usage":0.25,"profile":2,"dslam":7}]}`,
	`{"tickets":[{"id":1,"line":1,"day":274,"category":2},{"id":2,"line":3,"day":275,"category":1}],"tests":[{"line":1,"week":40},{"line":3,"week":40,"f":[0.1]}]}`,
	`{"tests":[{"line":1,"week":40},{"line":2,"week":40}],"tickets":[{"id":1,"line":1,"day":274,"category":2},{"line":2},{"line":3},{}]}`,
	`{"tests":[],"tickets":[{"id":1,"line":1,"day":274},{"id":2,"line":2,"day":274}]}`,
	`{"tests":[ ],"tickets":[]}`,
	`{"tests":[{},{},{}]}`,
	" {\"tests\" : [ {\"line\":1,\"week\":40} ,\n\t{\"line\":2,\"week\":40}\r\n,{\"line\":3,\"week\":40} , {} ] } ",
	`{"tests":[{"line":1,"week":40,"missing":true},{"line":2,"week":40,"missing":false,"f":[]}],"tickets":[]}`,
	`{"tests":[{"line":1,"week":40},{"line":2,"week":40},]}`,
	`{"tests":[{"line":1,"week":40},,{"line":2,"week":40}]}`,
	`{"tests":[{"line":1,"week":40} {"line":2,"week":40}]}`,
	`{"tests":[{"line":1,"week":40},{"line":2,"week":99999999999999999999}]}`,
	`{"tests":[{"line":1,"week":40},{"line":2,"week":40,"f":[1,2,3],"f":[4]}]}`,
	`{"tests":[{"line":1,"week":40},{"line":2,"week":40},{"line":3,"week":40}]}`,
	`{"tests":[{"line":1,"week":40},{"Line":2,"week":40}]}`,
	`{"tests":[{"line":1,"week":40},{"line":2,"week":40}],"tests":[{"line":3,"week":40}]}`,
	`{"tests":[{"line":1,"week":40},{"line":2,"week":40}]}garbage`,
	`{"tests":[{"line":1,"week":40},{"line":2,"week":40}`,
	`{"tests":[{"line":1,"week":40,"f":[{},{}]},{"line":2,"week":40}]}`,
	`{"tests":[{"line":1,"week":40},{"x},{y":2},{"line":3,"week":40}]}`,
	`{"tests":[{"line":1,"week":40},{"line":2,"week":40,"f":[1e400]}]}`,
	`{"tests":[{"line":1,"week":40},{"line":2,"week":40,"f":[-0,1.0000001]}],"tickets":[{"id":-0,"line":5,"day":300,"category":0}]}`,
}

// noCuts decodes every "tests" array serially.
func noCuts(dst []int, _ []byte, _ int) []int { return dst }

// sameDecode fails t unless got decoded what want did: the same error text,
// and on success the same records (float bits included), spans and
// Spanned verdict.
func sameDecode(t *testing.T, what string, got *IngestBody, gotErr error, want *IngestBody, wantErr error) {
	t.Helper()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: error %q, serial %q", what, errText(gotErr), errText(wantErr))
	}
	if wantErr != nil {
		return
	}
	sameIngest(t, what, &got.IngestRequest, &want.IngestRequest)
	if got.Spanned() != want.Spanned() || !slices.Equal(got.TestSpans, want.TestSpans) || !slices.Equal(got.TicketSpans, want.TicketSpans) {
		t.Fatalf("%s: spanned %v spans %v %v, serial %v %v %v", what, got.Spanned(), got.TestSpans, got.TicketSpans,
			want.Spanned(), want.TestSpans, want.TicketSpans)
	}
}

// TestPieceDecodeMatchesSerial cuts every body at each single byte offset
// past the start of its "tests" array (so inside keys, numbers, literals,
// whitespace, at each record boundary, and in the tickets array), and by
// the cut search from every minimum piece size (the smallest cuts at every
// record boundary at once). Each cut parse must decide, phrase its error
// and decode exactly as the serial parse does, into a fresh IngestBody and
// into one that decoded another body before.
func TestPieceDecodeMatchesSerial(t *testing.T) {
	reused := new(IngestBody)
	for i, s := range pieceBodies {
		body := []byte(s)
		serial := new(IngestBody)
		wantErr := serial.decode(body, noCuts)
		check := func(what string, cut cutSearch) {
			t.Helper()
			got := new(IngestBody)
			sameDecode(t, what, got, got.decode(body, cut), serial, wantErr)
			sameDecode(t, what+" (reused)", reused, reused.decode(body, cut), serial, wantErr)
		}
		for o := 1; o < len(body); o++ {
			check(fmt.Sprintf("body %d cut at %d", i, o), func(dst []int, _ []byte, start int) []int {
				if o <= start {
					return dst
				}
				return append(dst, o)
			})
		}
		for m := 1; m < len(body); m++ {
			check(fmt.Sprintf("body %d pieces of %d", i, m), func(dst []int, b []byte, start int) []int {
				return testCuts(dst, b, start, m, len(b))
			})
		}
	}
}

// TestTestCuts pins the cut search: no cut when fewer than two pieces fit,
// at most pieces-1 cuts, ascending, each a record comma.
func TestTestCuts(t *testing.T) {
	body := []byte(`{"tests":[{"line":1,"week":40} , {"line":2,"week":40},` + "\n" + `{"line":3,"week":40,"f":[1,2]},{"line":4}]}`)
	start := len(`{"tests":[`)
	if got := testCuts(nil, body, start, len(body), 8); len(got) != 0 {
		t.Fatalf("one piece's worth cut at %v", got)
	}
	if got := testCuts(nil, body, start, 1, 1); len(got) != 0 {
		t.Fatalf("one CPU's worth cut at %v", got)
	}
	want := []int{start + len(`{"line":1,"week":40} `), start + len(`{"line":1,"week":40} , {"line":2,"week":40}`),
		start + len(`{"line":1,"week":40} , {"line":2,"week":40},`+"\n"+`{"line":3,"week":40,"f":[1,2]}`)}
	if got := testCuts(nil, body, start, 1, len(body)); !slices.Equal(got, want) {
		t.Fatalf("every boundary: cuts %v, want %v", got, want)
	}
	// Two pieces: the first record comma from the middle of the span on.
	mid := start + (len(body)-start)/2
	if got := testCuts(nil, body, start, 1, 2); len(got) != 1 || got[0] < mid || got[0] != want[2] {
		t.Fatalf("two pieces: cuts %v, want [%d] (middle %d)", got, want[2], mid)
	}
}

// TestParseCutsBulkBody: Parse cuts a bulk body on a multi-CPU host and
// decodes exactly what the serial parse does, float bits included.
func TestParseCutsBulkBody(t *testing.T) {
	body := bulkIngestBody(2048)
	start := len(`{"tests":[`)
	if runtime.GOMAXPROCS(0) > 1 && len(cpuCuts(nil, body, start)) == 0 {
		t.Fatalf("a %d-byte body is not cut on %d CPUs", len(body), runtime.GOMAXPROCS(0))
	}
	if got := cpuCuts(nil, body[:start+minIngestPiece], start); len(got) != 0 {
		t.Fatalf("a body of one minimum piece is cut at %v", got)
	}
	serial := new(IngestBody)
	wantErr := serial.decode(body, noCuts)
	if wantErr != nil || !serial.Spanned() || len(serial.Tests) != 2048 {
		t.Fatalf("serial parse: %d tests, spanned %v, %v", len(serial.Tests), serial.Spanned(), wantErr)
	}
	ib := new(IngestBody)
	for range 3 { // the second and third reuse the pieces' buffers
		sameDecode(t, "Parse", ib, ib.Parse(body), serial, wantErr)
	}
	for k := range serial.Tests {
		if r := &serial.Tests[k]; r.Line != data.LineID(k) || math.Float32bits(r.F[1]) != math.Float32bits(float32(2*k)/7) {
			t.Fatalf("record %d decoded as %+v", k, *r)
		}
	}
}

// bulkIngestBody is an n-record body in perfbench's shape: every field
// present, 25 float32 features in shortest round-trip form.
func bulkIngestBody(n int) []byte {
	b := []byte(`{"tests":[`)
	for k := 0; k < n; k++ {
		if k > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"line":%d,"week":44,"f":[`, k)
		for f := 1; f <= 25; f++ {
			if f > 1 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(float32(k*f)/7), 'g', -1, 32)
		}
		b = append(b, `],"profile":2,"dslam":57,"usage":0.43}`...)
	}
	return append(b, `],"tickets":[{"id":9001,"line":20117,"day":305,"category":3}]}`...)
}
