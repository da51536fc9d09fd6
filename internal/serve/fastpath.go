package serve

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"nevermind/internal/data"
)

// The scoring fast path avoids the two per-request costs that dominated the
// legacy handlers: encoding/json (reflection plus per-field allocation on
// both decode and encode) and feature encoding (moved into weekTable). The
// scratch buffers here are pooled so a steady-state /v1/score or /v1/rank
// request allocates nothing beyond what net/http itself requires.
//
// Ownership contract for pooled scratch: a handler Gets one scratch for the
// whole request, may grow its buffers (growth is retained for the next
// user), and must not let any of them escape the request — the response
// buffer is fully written to the ResponseWriter before the deferred Put
// returns the scratch. Snapshot/table data is never stored in scratch, only
// copied through it.

// scratch bundles one request's reusable buffers: the raw body, the parsed
// examples or ingest records, and the rendered response.
type scratch struct {
	body     []byte
	examples []ScoreExample
	ingest   IngestBody
	out      []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// readBody slurps the request body into sc's pooled buffer (ReadBody).
func readBody(w http.ResponseWriter, r *http.Request, sc *scratch) ([]byte, error) {
	body, err := ReadBody(w, r, sc.body)
	sc.body = body
	return body, err
}

// ReadBody reads r's body into buf's backing array, growing it as needed,
// under the same MaxBodyBytes cap the legacy decoder enforced (and the same
// "http: request body too large" error past it). It returns the bytes read,
// on a read error those read before it, in the grown buffer, which the
// caller keeps for its next request.
func ReadBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if cap(buf) == 0 {
		buf = make([]byte, 0, 64<<10)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			// Double, but never past the one byte beyond MaxBodyBytes that
			// tells a body at the cap from one over it.
			buf = slices.Grow(buf, min(len(buf), MaxBodyBytes+1-len(buf)))
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// parseScoreBody is a hand parser for exactly the /v1/score body shape,
//
//	{"examples":[{"line":N,"week":M}, ...]}
//
// on the same object/array/key helpers as the ingest grammar: JSON
// whitespace anywhere, keys each at most once per object and any of them
// absent, "line" within int32. It appends the examples to exs. Anything else
// (unknown, escaped or repeated keys, null, floats, out-of-range numbers,
// trailing data) returns ok == false for DecodeStrict to decide, so the
// grammar only ever accepts what encoding/json accepts, with the same
// values: an absent "examples" decodes to nil, an empty array to an empty
// slice.
func parseScoreBody(body []byte, exs []ScoreExample) ([]ScoreExample, bool) {
	p := fastParser{b: body}
	present := false
	p.ws()
	ok := p.object(scoreKeys, func(int) bool {
		present = true
		return p.array(func() bool {
			var e ScoreExample
			ok := p.object(exampleKeys, func(k int) bool {
				if k == 0 {
					v, ok := p.int32()
					e.Line = data.LineID(v)
					return ok
				}
				v, ok := p.integer()
				e.Week = int(v)
				return ok
			})
			exs = append(exs, e)
			return ok
		})
	})
	p.ws()
	switch {
	case !ok || p.i != len(p.b):
		return nil, false
	case !present:
		return nil, true
	case exs == nil:
		return []ScoreExample{}, true
	}
	return exs, true
}

// Field names of the fast score grammar.
var (
	scoreKeys   = []string{`"examples"`}
	exampleKeys = []string{`"line"`, `"week"`}
)

// parseScore parses a /v1/score body into exs's backing array: the fast
// grammar first, then the strict reflective decoder on any deviation, so a
// malformed body gets the exact error text it always has and a merely
// unusual one (escaped keys, a repeated "examples") parses as encoding/json
// defines it.
func parseScore(body []byte, exs []ScoreExample) ([]ScoreExample, error) {
	if exs, ok := parseScoreBody(body, exs[:0]); ok {
		return exs, nil
	}
	var req struct {
		Examples []ScoreExample `json:"examples"`
	}
	if err := DecodeStrict(bytes.NewReader(body), &req); err != nil {
		return nil, err
	}
	return req.Examples, nil
}

// ParseScoreExamples parses a /v1/score body exactly as the shard handler
// does (parseScore). The fleet gateway uses it to partition a request by
// ring ownership without changing a single accepted-or-rejected decision
// relative to a bare daemon.
func ParseScoreExamples(body []byte) ([]ScoreExample, error) {
	return parseScore(body, nil)
}

// Span is one record's byte range in an ingest body: body[Start:End], from
// the record's '{' through its '}'.
type Span struct{ Start, End int }

// IngestBody is a /v1/ingest body decoded by ParseIngest or Parse. When the
// fast grammar decoded it (Spanned), TestSpans[i] and TicketSpans[i] locate
// Tests[i] and Tickets[i] in the body, so a record can be forwarded as the
// bytes the client sent.
type IngestBody struct {
	IngestRequest
	TestSpans   []Span
	TicketSpans []Span
	spanned     bool
	floats      []float32 // the backing array every fast-decoded F is carved from

	// The piece decode's buffers (see tests), kept for the next body.
	cuts   []int
	pieces []testPiece
	wg     sync.WaitGroup
}

// testPiece is one piece of a "tests" array, decoded on its own goroutine
// into its own buffers (out's Tests, TestSpans and floats).
type testPiece struct {
	out IngestBody
	ok  bool
}

// Spanned reports whether the fast grammar decoded the body, so that the
// spans locate every record. It is false after the DecodeStrict fallback.
func (ib *IngestBody) Spanned() bool { return ib.spanned }

// ParseIngest decodes a /v1/ingest body exactly as the daemon's handler
// does: the fast grammar first, then DecodeStrict on any deviation, so the
// accepted bodies, the decoded values and the error text are encoding/json's.
func ParseIngest(body []byte) (*IngestBody, error) {
	ib := new(IngestBody)
	if err := ib.Parse(body); err != nil {
		return nil, err
	}
	return ib, nil
}

// IngestReadError is the error /v1/ingest answers when reading its body
// failed after prefix: "trailing data after JSON body" when prefix already
// holds a whole JSON value, otherwise the read error itself (past
// MaxBodyBytes, "http: request body too large"). Both used to come from
// DecodeStrict streaming the body, so it replays the bytes and then the
// error into DecodeStrict, which picks between them exactly as before.
func IngestReadError(prefix []byte, readErr error) error {
	// A trailing run of one repeated whitespace byte decides nothing past
	// its first byte: that byte either ends the scan (a syntax error, or the
	// end of a top-level value) or leaves the scanner in a state the same
	// byte leaves unchanged. Cutting the run there keeps a body padded past
	// the cap from being copied a second time, into the decoder.
	if n := len(prefix); n > 1 && isJSONSpace(prefix[n-1]) {
		i := n - 1
		for i > 0 && prefix[i-1] == prefix[n-1] {
			i--
		}
		prefix = prefix[:i+1]
	}
	var req IngestRequest
	if err := DecodeStrict(io.MultiReader(bytes.NewReader(prefix), errReader{readErr}), &req); err != nil {
		return err
	}
	return readErr // unreachable: the stream ends in readErr, never in io.EOF
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// Parse decodes body into ib exactly as ParseIngest does, reusing ib's
// buffers. Records decoded by the fast grammar point into those buffers (F
// into ib.floats and the pieces' float buffers), so a pooled IngestBody's
// records must not outlive the request; the store copies the values it
// keeps and the WAL encodes a batch before IngestTests returns.
func (ib *IngestBody) Parse(body []byte) error {
	return ib.decode(body, cpuCuts)
}

// minIngestPiece is the least "tests" array bytes (about 250 records) a
// piece decode hands one goroutine; a smaller body, such as a feed's
// 200-record batch, decodes on the caller's goroutine alone.
const minIngestPiece = 64 << 10

// cutSearch appends to dst where to cut a "tests" array whose first record
// starts at b[start] (see tests).
type cutSearch func(dst []int, b []byte, start int) []int

// cpuCuts is Parse's cut search: up to one piece per CPU, each at least
// minIngestPiece bytes.
func cpuCuts(dst []int, b []byte, start int) []int {
	return testCuts(dst, b, start, minIngestPiece, runtime.GOMAXPROCS(0))
}

// decode is Parse with the cut search as a parameter.
func (ib *IngestBody) decode(body []byte, cut cutSearch) error {
	if ib.parseFast(body, cut) {
		return nil
	}
	// The fast grammar balked: the strict reflective decoder phrases the
	// error, or decodes a valid body the grammar is too narrow for (escaped
	// or case-folded keys, duplicate keys, null).
	*ib = IngestBody{floats: ib.floats, cuts: ib.cuts, pieces: ib.pieces}
	return DecodeStrict(bytes.NewReader(body), &ib.IngestRequest)
}

// parseFast is a hand parser for exactly the IngestRequest shape:
//
//	{"tests":[{"line":N,"week":N,"missing":B,"f":[X,...],"profile":N,"dslam":N,"usage":X}, ...],
//	 "tickets":[{"id":N,"line":N,"day":N,"category":N}, ...]}
//
// with JSON whitespace anywhere, lowercase keys in any order, each at most
// once per object and any of them absent, integers checked against their
// field's range, and floats converted by strconv.ParseFloat(tok, 32), the
// call encoding/json makes, after the token passed the JSON number grammar.
// Anything else (unknown, escaped or case-folded keys, duplicate keys,
// null, out-of-range or non-JSON numbers, trailing data) returns false for
// DecodeStrict to decide, so the grammar only ever accepts what
// encoding/json accepts, with the same values. Absent arrays stay nil and
// present ones do not, as encoding/json leaves them. The "tests" array is
// decoded in the pieces cut marks out (see tests).
func (ib *IngestBody) parseFast(body []byte, cut cutSearch) bool {
	ib.Tests, ib.Tickets = ib.Tests[:0], ib.Tickets[:0]
	ib.TestSpans, ib.TicketSpans = ib.TestSpans[:0], ib.TicketSpans[:0]
	ib.floats = ib.floats[:0]
	ib.spanned = false
	p := fastParser{b: body}
	var haveTests, haveTickets bool
	p.ws()
	if !p.eat('{') {
		return false
	}
	p.ws()
	if !p.eat('}') {
		for {
			switch {
			case !haveTests && p.lit(`"tests"`):
				haveTests = true
				if !p.colon() || !ib.tests(&p, cut) {
					return false
				}
			case !haveTickets && p.lit(`"tickets"`):
				haveTickets = true
				if !p.colon() || !p.array(func() bool { return ib.ticket(&p) }) {
					return false
				}
			default:
				return false
			}
			if !p.more() {
				break
			}
		}
		if !p.eat('}') {
			return false
		}
	}
	p.ws()
	if p.i != len(p.b) {
		return false
	}
	switch {
	case !haveTests:
		ib.Tests = nil
	case ib.Tests == nil:
		ib.Tests = []TestRecord{}
	}
	switch {
	case !haveTickets:
		ib.Tickets = nil
	case ib.Tickets == nil:
		ib.Tickets = []TicketRecord{}
	}
	ib.spanned = true
	return true
}

// Field names of the fast ingest grammar; a field's index is its bit in the
// per-object duplicate mask.
var (
	testKeys   = []string{`"line"`, `"week"`, `"missing"`, `"f"`, `"profile"`, `"dslam"`, `"usage"`}
	ticketKeys = []string{`"id"`, `"line"`, `"day"`, `"category"`}
)

// tests parses the "tests" array at the cursor. When cut marks out places
// to cut it (ascending, past its first record's '{', inside the body, each
// a ','), the pieces before the last cut decode on their own goroutines
// into their own buffers, and this goroutine decodes the records after it
// and the array's end. Each piece must parse as object (, object)* and end
// exactly at its cut, so the pieces joined at the cut commas are the
// array's own object (, object)* production: the same records, spans and
// floats as a serial parse, in the same order. When any piece fails (a cut
// fell outside the array or inside a record, or the body is malformed), the
// array is decoded again serially from its start, so where a cut lands
// never decides the outcome.
func (ib *IngestBody) tests(p *fastParser, cut cutSearch) bool {
	if !p.eat('[') {
		return false
	}
	p.ws()
	if p.eat(']') {
		return true
	}
	start := p.i
	cuts := cut(ib.cuts[:0], p.b, start)
	ib.cuts = cuts
	for _, c := range cuts {
		if p.b[c] != ',' {
			cuts = nil
			break
		}
	}
	if len(cuts) == 0 {
		return ib.testRecords(p)
	}
	for len(ib.pieces) < len(cuts) {
		ib.pieces = append(ib.pieces, testPiece{})
	}
	ib.wg.Add(len(cuts))
	from := start
	for j, c := range cuts {
		go ib.testPiece(j, p.b[:c], from)
		from = c + 1
	}
	p.i = from
	p.ws()
	ok := ib.testRecords(p)
	ib.wg.Wait()
	for j := range cuts {
		ok = ok && ib.pieces[j].ok
	}
	if !ok {
		ib.Tests, ib.TestSpans, ib.floats = ib.Tests[:0], ib.TestSpans[:0], ib.floats[:0]
		p.i = start
		return ib.testRecords(p)
	}
	// Join in piece order: the pieces' records go ahead of this goroutine's.
	// Their F slices stay in the pieces' float buffers.
	m := 0
	for j := range cuts {
		m += len(ib.pieces[j].out.Tests)
	}
	n := len(ib.Tests)
	ib.Tests = slices.Grow(ib.Tests, m)[:n+m]
	ib.TestSpans = slices.Grow(ib.TestSpans, m)[:n+m]
	copy(ib.Tests[m:], ib.Tests[:n])
	copy(ib.TestSpans[m:], ib.TestSpans[:n])
	at := 0
	for j := range cuts {
		out := &ib.pieces[j].out
		copy(ib.TestSpans[at:], out.TestSpans)
		at += copy(ib.Tests[at:], out.Tests)
	}
	return true
}

// testCuts appends to dst where to cut a "tests" array whose first record
// starts at b[start] into up to pieces pieces of at least minPiece bytes
// (none when fewer than two fit): from equal offsets into b[start:], the
// first comma with '}' before it and '{' after it, JSON whitespace allowed
// between. The cuts are only guesses: one that lands outside the array,
// inside a record or in a malformed body makes tests decode serially.
func testCuts(dst []int, b []byte, start, minPiece, pieces int) []int {
	span := len(b) - start
	k := min(pieces, span/max(minPiece, 1))
	next := start + 1
	for j := 1; j < k; j++ {
		c := recordComma(b, max(next, start+j*(span/k)))
		if c < 0 {
			break
		}
		dst = append(dst, c)
		next = c + 1
	}
	return dst
}

// recordComma returns the index of the first ',' at or after i that has a
// '}' before it and a '{' after it, JSON whitespace between; -1 if none.
func recordComma(b []byte, i int) int {
	for {
		j := bytes.IndexByte(b[i:], ',')
		if j < 0 {
			return -1
		}
		c := i + j
		before, after := c-1, c+1
		for before >= 0 && isJSONSpace(b[before]) {
			before--
		}
		for after < len(b) && isJSONSpace(b[after]) {
			after++
		}
		if before >= 0 && b[before] == '}' && after < len(b) && b[after] == '{' {
			return c
		}
		i = c + 1
	}
}

// testPiece decodes the piece b[from:] as object (, object)* into piece j's
// buffers; b ends at the piece's cut.
func (ib *IngestBody) testPiece(j int, b []byte, from int) {
	defer ib.wg.Done()
	pc := &ib.pieces[j]
	out := &pc.out
	out.Tests, out.TestSpans, out.floats = out.Tests[:0], out.TestSpans[:0], out.floats[:0]
	p := fastParser{b: b, i: from}
	p.ws()
	for {
		if !out.test(&p) {
			pc.ok = false
			return
		}
		if !p.more() {
			pc.ok = p.i == len(p.b)
			return
		}
	}
}

// testRecords decodes records at the cursor, object (, object)*, through
// the ']' that ends their array.
func (ib *IngestBody) testRecords(p *fastParser) bool {
	for {
		if !ib.test(p) {
			return false
		}
		if !p.more() {
			return p.eat(']')
		}
	}
}

// test parses one test record object and appends it and its span.
func (ib *IngestBody) test(p *fastParser) bool {
	start := p.i
	var r TestRecord
	ok := p.object(testKeys, func(k int) bool {
		switch k {
		case 0:
			v, ok := p.int32()
			r.Line = data.LineID(v)
			return ok
		case 1:
			v, ok := p.integer()
			r.Week = int(v)
			return ok
		case 2:
			switch {
			case p.lit("true"):
				r.Missing = true
			case p.lit("false"):
			default:
				return false
			}
			return true
		case 3:
			return ib.features(p, &r)
		case 4:
			v, ok := p.uint8()
			r.Profile = v
			return ok
		case 5:
			v, ok := p.int32()
			r.DSLAM = v
			return ok
		default:
			v, ok := p.float32()
			r.Usage = v
			return ok
		}
	})
	if !ok {
		return false
	}
	ib.Tests = appendDoubling(ib.Tests, r)
	ib.TestSpans = appendDoubling(ib.TestSpans, Span{start, p.i})
	return true
}

// ticket parses one ticket record object and appends it and its span.
func (ib *IngestBody) ticket(p *fastParser) bool {
	start := p.i
	var r TicketRecord
	ok := p.object(ticketKeys, func(k int) bool {
		switch k {
		case 0:
			v, ok := p.integer()
			r.ID = int(v)
			return ok
		case 1:
			v, ok := p.int32()
			r.Line = data.LineID(v)
			return ok
		case 2:
			v, ok := p.integer()
			r.Day = int(v)
			return ok
		default:
			v, ok := p.uint8()
			r.Category = v
			return ok
		}
	})
	if !ok {
		return false
	}
	ib.Tickets = append(ib.Tickets, r)
	ib.TicketSpans = append(ib.TicketSpans, Span{start, p.i})
	return true
}

// features parses an "f" array into ib.floats and carves r.F from it. An
// append that grows ib.floats leaves the records already carved pointing at
// the old array, whose values no later append touches.
func (ib *IngestBody) features(p *fastParser, r *TestRecord) bool {
	start := len(ib.floats)
	ok := p.array(func() bool {
		v, ok := p.float32()
		ib.floats = appendDoubling(ib.floats, v)
		return ok
	})
	if !ok {
		return false
	}
	end := len(ib.floats)
	r.F = ib.floats[start:end:end]
	if r.F == nil {
		r.F = []float32{}
	}
	return true
}

// appendDoubling appends v to s, doubling s's capacity when it is full.
// append alone grows a large slice by about 1.25x, so decoding a bulk body
// (tens of thousands of records) would copy the records and features
// several times over and leave each outgrown array as garbage, which raised
// the gateway's peak memory on a bulk load.
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 256))
	}
	return append(s, v)
}

type fastParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace; always true so it chains in && conditions.
func (p *fastParser) ws() bool {
	for p.i < len(p.b) && isJSONSpace(p.b[p.i]) {
		p.i++
	}
	return true
}

func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func (p *fastParser) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

func (p *fastParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *fastParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// integer parses a plain JSON integer: optional '-', no leading zeros, at
// most 18 digits (always fits int64), and the next byte must end the number
// — a '.', 'e' or any other continuation bails to the strict decoder.
func (p *fastParser) integer() (int64, bool) {
	neg := p.eat('-')
	start := p.i
	p.i = skipDigits(p.b, start)
	nd := p.i - start
	if nd == 0 || nd > 18 || (nd > 1 && p.b[start] == '0') || !p.numberEnds() {
		return 0, false
	}
	var v int64
	for _, c := range p.b[start:p.i] {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// numberEnds reports whether the byte after a number token ends it; at the
// end of the body the number is truncated.
func (p *fastParser) numberEnds() bool {
	if p.i >= len(p.b) {
		return false
	}
	switch p.b[p.i] {
	case ' ', '\t', '\n', '\r', ',', '}', ']':
		return true
	}
	return false
}

// int32 parses an integer into an int32 field; out of range bails, as
// encoding/json rejects it.
func (p *fastParser) int32() (int32, bool) {
	v, ok := p.integer()
	if !ok || v < math.MinInt32 || v > math.MaxInt32 {
		return 0, false
	}
	return int32(v), true
}

// uint8 parses an integer into a uint8 field. encoding/json parses unsigned
// fields with strconv.ParseUint, which refuses any sign, "-0" included.
func (p *fastParser) uint8() (uint8, bool) {
	if p.peek() == '-' {
		return 0, false
	}
	v, ok := p.integer()
	if !ok || v > math.MaxUint8 {
		return 0, false
	}
	return uint8(v), true
}

// float32 parses a float32 field as encoding/json does: the token must match
// the JSON number grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and its value is strconv.ParseFloat(tok, 32)'s, the call encoding/json
// makes; a conversion error (magnitude past float32) bails to the strict
// decoder. The grammar check matters because ParseFloat also takes "+1",
// ".5", "1.", "01", "0x1p3", "Inf" and "NaN", which JSON does not.
//
// The pass that checks the grammar also gathers the token's first 19
// significant digits into a uint64 mantissa m and a decimal exponent e, so
// that most tokens convert without a second scan (Clinger's fast path):
// when m < 2^53 and |e| <= 22, both float64(m) and 10^|e| are exact, so
// y = m·10^e (or m/10^-e) is the correctly rounded float64 of the decimal.
// Every float32 rounding boundary in the normal range is itself a float64,
// so rounding y to float32 rounds the decimal correctly too, unless y lies
// exactly on a boundary (a tie: its low 29 mantissa bits are 1<<28), where
// the decimal may sit just off it. Under those bounds y lies in
// [1e-22, 9.1e37], inside the normal float32 range, where that holds. Ties,
// mantissas past 19 digits or 2^53, larger exponents and exponents of 1e4
// and up (where strconv stops reading exponent digits, so its value is no
// longer the token's) go to ParseFloat, which also rounds correctly, so
// both paths give encoding/json's bits.
func (p *fastParser) float32() (float32, bool) {
	b, i := p.b, p.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		m     uint64 // the first 19 significant digits
		nd    int    // digits in m
		e     int    // the value is m·10^e, up to truncation
		trunc bool   // a nonzero digit past the 19th was dropped, or the exponent field reached 1e4
	)
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if nd < 19 {
				m = m*10 + uint64(b[i]-'0')
				nd++
			} else {
				e++
				trunc = trunc || b[i] != '0'
			}
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			switch {
			case nd == 0 && b[i] == '0': // a leading zero only scales
				e--
			case nd < 19:
				m = m*10 + uint64(b[i]-'0')
				nd++
				e--
			default:
				trunc = trunc || b[i] != '0'
			}
		}
		if i == j {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		x := 0
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if x < 1e4 {
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, false
		}
		trunc = trunc || x >= 1e4
		if eneg {
			x = -x
		}
		e += x
	}
	p.i = i
	if !p.numberEnds() {
		return 0, false
	}
	if m == 0 {
		if neg {
			return float32(math.Copysign(0, -1)), true
		}
		return 0, true
	}
	if !trunc && m < 1<<53 && e >= -22 && e <= 22 {
		y := float64(m)
		if e < 0 {
			y /= exactPow10[-e]
		} else {
			y *= exactPow10[e]
		}
		if math.Float64bits(y)&(1<<29-1) != 1<<28 {
			if neg {
				y = -y
			}
			return float32(y), true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 32)
	if err != nil {
		return 0, false
	}
	return float32(f), true
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// skipDigits returns the index of the first non-digit in b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// colon skips the ':' between a key and its value and the whitespace around
// it.
func (p *fastParser) colon() bool {
	p.ws()
	if !p.eat(':') {
		return false
	}
	p.ws()
	return true
}

// more skips the whitespace after a value, then a ',' and the whitespace
// after it; false, with the cursor on the byte that ended the value, when
// there is no ','.
func (p *fastParser) more() bool {
	p.ws()
	if !p.eat(',') {
		return false
	}
	p.ws()
	return true
}

// array parses one JSON array, each element by elem, which parses from the
// same cursor. elem takes no parser argument: handing p to a function value
// would make every caller's fastParser escape to the heap.
func (p *fastParser) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	p.ws()
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !p.more() {
			return p.eat(']')
		}
	}
}

// object parses one JSON object whose keys all come from keys, each at most
// once, calling value(k) with the cursor on key k's value. A repeated key
// bails: encoding/json lets the last one win, which the strict decoder does.
func (p *fastParser) object(keys []string, value func(k int) bool) bool {
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return true
	}
	var seen uint32
	for {
		k := p.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !p.colon() || !value(k) {
			return false
		}
		seen |= 1 << k
		if !p.more() {
			break
		}
	}
	return p.eat('}')
}

// key matches one of keys (quoted names whose first letters differ) at the
// cursor and returns its index, or -1.
func (p *fastParser) key(keys []string) int {
	if len(p.b)-p.i < 3 {
		return -1
	}
	c := p.b[p.i+1]
	for k, s := range keys {
		if s[1] == c && p.lit(s) {
			return k
		}
	}
	return -1
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip form, 'f' format unless the magnitude forces
// exponent notation, with the two-digit negative exponent's leading zero
// trimmed. Byte-for-byte parity keeps the hand-rendered responses equal to
// what the legacy encoder wrote, which its clients already parse.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	fmtc := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmtc = 'e'
	}
	b = strconv.AppendFloat(b, f, fmtc, -1, 64)
	if fmtc == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// writeRawJSON sends a hand-rendered JSON body with the same headers
// writeJSON sets.
func writeRawJSON(w http.ResponseWriter, buf []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
}
