package serve

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the JSON number grammar, which fastParser.float32 enforces
// and strconv.ParseFloat does not.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// float32Seeds are the tokens where the one-pass conversion's shortcuts end:
// float32 ties a float64 holds exactly, a decimal just off a tie that
// float64 rounds onto it, the edges of the normal float32 range, signed and
// scaled zeros, mantissas past 19 digits and past 2^53, and the edge of the
// exact powers of ten.
var float32Seeds = []string{
	"16777217", "16777219", "33554434", "1.6777217e7", "-16777217", "-1.407454213317224e+19",
	"3.4028235e38", "3.4028236e38", "3.4028234663852886e38", "1.17549435e-38", "1e-45", "7e-46",
	"-0", "0e999999", "-0.0e-5", "0.000",
	"1234567890123456789", "12345678901234567891", "1234567890123456789012345",
	"1.234567890123456789e3", "0.00000000000000000000000012345678901234567890123",
	"9007199254740993", "9007199254740992", "1e22", "1e23", "1e-22", "1e-23",
	"1e+06", "1.5e-05", "6.0221e+23", "0.33333334", "7.245", "12288", "1E+2",
	"1e39", "1e-50", "01", "+1", ".5", "1.", "NaN", "Infinity", "0x1p3", "-", "1e", "1.e3",
}

// sameFloat32 holds fastParser.float32 to strconv.ParseFloat(tok, 32) on
// tok+",", where tok is a token of the JSON number grammar: both fail, or
// both succeed with the same bits and the parser stops on the ','.
func sameFloat32(t *testing.T, body []byte) {
	tok := string(body[:len(body)-1])
	p := fastParser{b: body}
	got, ok := p.float32()
	want, err := strconv.ParseFloat(tok, 32)
	name := tok
	if len(name) > 64 {
		name = fmt.Sprintf("%s...(%d bytes)...%s", tok[:24], len(tok), tok[len(tok)-24:])
	}
	switch {
	case ok != (err == nil):
		t.Fatalf("%q: float32 ok=%v, ParseFloat error %v", name, ok, err)
	case !ok:
	case math.Float32bits(got) != math.Float32bits(float32(want)):
		t.Fatalf("%q: float32 %v (%#08x), ParseFloat %v (%#08x)",
			name, got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)))
	case p.i != len(tok):
		t.Fatalf("%q: cursor at %d, token ends at %d", name, p.i, len(tok))
	}
}

// FuzzFloat32Token holds the one-pass conversion of a number token to
// strconv.ParseFloat(tok, 32), the call encoding/json makes, bit for bit,
// and never takes a whole token outside the JSON number grammar as a number.
func FuzzFloat32Token(f *testing.F) {
	for _, tok := range float32Seeds {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		body := []byte(tok + ",")
		if jsonNumber.MatchString(tok) {
			sameFloat32(t, body)
			return
		}
		p := fastParser{b: body}
		if got, ok := p.float32(); ok && p.i == len(tok) {
			t.Fatalf("%q is no JSON number, but float32 took it as %v", tok, got)
		}
	})
}

// TestFloat32TokenMatchesParseFloat sweeps the token families a differential
// fuzzer is unlikely to hit by mutation: random float32s in the forms
// encoders print, the shortest float64 form of the midpoint between each of
// them and the next float32 (a decimal within a float64 rounding of a
// float32 tie), and the integer ties 2^e + k·2^(e-24), k odd below 2^16,
// with their ±1 neighbours, in every binade from 2^24 to 2^52; and
// exponents strconv stops reading at 1e4, which enough leading fraction
// zeros bring back into the fast path's range, where the token's exact
// value and ParseFloat's (encoding/json's) differ.
func TestFloat32TokenMatchesParseFloat(t *testing.T) {
	n, ks := 1<<20, 1<<16
	if testing.Short() {
		n, ks = 1<<14, 1<<8
	}
	rng := rand.New(rand.NewSource(22))
	var tok []byte // each token is appended here, then a ','
	check := func() { sameFloat32(t, append(tok, ',')) }
	for i := 0; i < n; i++ {
		f := math.Float32frombits(rng.Uint32())
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			continue
		}
		tok = strconv.AppendFloat(tok[:0], float64(f), 'g', -1, 32)
		check()
		for prec := 0; prec <= 11; prec++ {
			tok = strconv.AppendFloat(tok[:0], float64(f), 'e', prec, 32)
			check()
		}
		if next := math.Nextafter32(f, float32(math.Inf(1))); !math.IsInf(float64(next), 0) {
			mid := (float64(f) + float64(next)) / 2
			tok = strconv.AppendFloat(tok[:0], mid, 'g', -1, 64)
			check()
		}
	}
	for e := 24; e <= 52; e++ {
		for k := 1; k < ks; k += 2 {
			tie := uint64(1)<<e + uint64(k)<<(e-24)
			for _, v := range []uint64{tie - 1, tie, tie + 1} {
				tok = strconv.AppendUint(tok[:0], v, 10)
				check()
			}
		}
	}
	zeros := strings.Repeat("0", 99999)
	for _, long := range []string{
		"0." + zeros + "1e100000",    // exactly 1; ParseFloat reads 1e-90000, so 0
		"-0." + zeros + "15e+100001", // exactly -15
		"1" + zeros + "e-100000",     // exactly 0.1; ParseFloat overflows
		"0." + zeros[:9977] + "1e10000",
		"1e00000000000000000022",
	} {
		tok = append(tok[:0], long...)
		check()
	}
}
