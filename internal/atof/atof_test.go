package atof

import (
	"math"
	"regexp"
	"strconv"
	"testing"
)

// grammar is the JSON number token, leftmost-longest.
var grammar = func() *regexp.Regexp {
	re := regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
	re.Longest()
	return re
}()

// csvRule is how trace.ScanCSV reads a field: Parse, and strconv when the
// token does not convert or does not cover the field.
func csvRule(b []byte) (float64, error) {
	if v, n, ok := Parse(b); ok && n == len(b) {
		return v, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// requireStrconv holds Parse to strconv.ParseFloat on b: the prefix it
// scans is the grammar's token; on that token the value bits and success
// are strconv's; and csvRule on the whole of b is strconv's value and
// error.
func requireStrconv(t *testing.T, b []byte) {
	t.Helper()
	v, n, ok := Parse(b)
	if want := len(grammar.Find(b)); n != want {
		t.Fatalf("%q: token length %d, grammar %d", b, n, want)
	}
	if n == 0 && ok {
		t.Fatalf("%q: no token, yet ok", b)
	}
	if n > 0 {
		want, err := strconv.ParseFloat(string(b[:n]), 64)
		if ok != (err == nil) || math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%q: token %q is %v (ok %v), strconv %v (%v)", b, b[:n], v, ok, want, err)
		}
	}
	got, gotErr := csvRule(b)
	want, wantErr := strconv.ParseFloat(string(b), 64)
	if math.Float64bits(got) != math.Float64bits(want) || (gotErr == nil) != (wantErr == nil) ||
		gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q: CSV rule %v (%v), strconv %v (%v)", b, got, gotErr, want, wantErr)
	}
}

// FuzzParse holds Parse to strconv.ParseFloat on any bytes at all (see
// requireStrconv). The named seeds under testdata/fuzz/FuzzParse sit on
// the edges of each case: 2^53 ± 1 on Clinger's, 19 and 20 significant
// digits and exponents ±19/±20/±22/±23 on the 128-bit one, ties, signed
// zeros, subnormals and overflow on the fallback.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { requireStrconv(t, b) })
}

// TestParseRandomTokens draws tokens of every shape the exact cases take —
// 1 to 20 significant digits, a decimal point anywhere, exponents from
// -25 to 25 — plus the shortest forms of random float64s, and holds each
// to strconv.
func TestParseRandomTokens(t *testing.T) {
	r := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	n := 200000
	if testing.Short() {
		n = 20000
	}
	var b []byte
	for i := 0; i < n; i++ {
		b = b[:0]
		if next()&1 == 0 {
			b = append(b, '-')
		}
		digits := 1 + int(next()%20)
		dot := int(next() % uint64(digits+1))
		for d := 0; d < digits; d++ {
			if d == dot && d > 0 {
				b = append(b, '.')
			}
			c := byte('0' + next()%10)
			if d == 0 && c == '0' && digits > 1 && dot != 1 {
				c = '1'
			}
			b = append(b, c)
		}
		if next()&1 == 0 {
			b = append(b, 'e')
			b = strconv.AppendInt(b, int64(next()%51)-25, 10)
		}
		requireStrconv(t, b)
		requireStrconv(t, strconv.AppendFloat(nil, math.Float64frombits(next()), 'g', -1, 64))
	}
}

func BenchmarkParse(b *testing.B) {
	toks := [][]byte{
		[]byte("43.21987654321"), []byte("0.8125"), []byte("1e-05"),
		[]byte("57.029384756102938"), []byte("3.1415926535897931"), []byte("12"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, tok := range toks {
			if _, _, ok := Parse(tok); !ok {
				b.Fatal(string(tok))
			}
		}
	}
}
