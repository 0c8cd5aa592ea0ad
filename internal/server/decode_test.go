package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/trace"
)

// stdlibDecode is the reference the fast path must agree with.
func stdlibDecode(body []byte) (ForecastRequest, error) {
	var req ForecastRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// requireSameDecode demands that decodeForecastRequest and encoding/json
// agree on body: same accept/reject decision and, on accept, bitwise
// identical indicators, the same entity, and the same t (nil-ness and
// value).
func requireSameDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := stdlibDecode(body)
	var got ForecastRequest
	gotErr := decodeForecastRequest(body, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: err = %v, stdlib err = %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Entity != want.Entity {
		t.Fatalf("%q: entity %q, stdlib %q", body, got.Entity, want.Entity)
	}
	if (got.T == nil) != (want.T == nil) || (got.T != nil && *got.T != *want.T) {
		t.Fatalf("%q: t = %v, stdlib %v", body, got.T, want.T)
	}
	if (got.Indicators == nil) != (want.Indicators == nil) || len(got.Indicators) != len(want.Indicators) {
		t.Fatalf("%q: indicators %v, stdlib %v", body, got.Indicators, want.Indicators)
	}
	for i := range want.Indicators {
		if (got.Indicators[i] == nil) != (want.Indicators[i] == nil) || len(got.Indicators[i]) != len(want.Indicators[i]) {
			t.Fatalf("%q: row %d is %v, stdlib %v", body, i, got.Indicators[i], want.Indicators[i])
		}
		for j := range want.Indicators[i] {
			if math.Float64bits(got.Indicators[i][j]) != math.Float64bits(want.Indicators[i][j]) {
				t.Fatalf("%q: [%d][%d] = %g, stdlib %g", body, i, j,
					got.Indicators[i][j], want.Indicators[i][j])
			}
		}
	}
}

// decodeCases are canonical, hostile and degenerate bodies: the rows of
// TestDecodeForecastRequestMatchesStdlib and, beside the files under
// testdata/fuzz, the seeds of FuzzDecodeForecastRequest.
var decodeCases = []string{
	`{"indicators":[[1,2,3],[4,5,6]]}`,
	` { "indicators" : [ [ 1.5 , -2e-3 ] , [ 0.25 ] ] } `,
	"{\n\t\"indicators\": [[0]]\n}\n",
	`{"indicators":[]}`,
	`{"indicators":[[]]}`,
	`{"indicators":[[1e308,-1e-308,0.0,-0.0]]}`,
	`{"indicators":[[1.7976931348623157e308]]}`,
	`{"indicators":[[5e-324,2.2250738585072014e-308]]}`,
	`{"indicators":[[0.1,0.2,0.30000000000000004]]}`,
	`{"indicators":[[1E+2,1e-2,12.34E1]]}`,
	`{"indicators":[[-0]]}`,
	`{"indicators":[[1E+400]]}`,
	// The three known keys, every order.
	`{"indicators":[[1,2]],"entity":"c1","t":7}`,
	`{"indicators":[[1,2]],"t":7,"entity":"c1"}`,
	`{"entity":"c1","indicators":[[1,2]],"t":7}`,
	`{"entity":"c1","t":7,"indicators":[[1,2]]}`,
	`{"t":7,"indicators":[[1,2]],"entity":"c1"}`,
	`{"t":7,"entity":"c1","indicators":[[1,2]]}`,
	` { "entity" : "" , "t" : -0 , "indicators" : [ [ 1 ] ] } `,
	`{"indicators":[[1]],"t":-9223372036854775808}`,
	`{"indicators":[[1]],"t":9223372036854775807}`,
	`{"indicators":[[1]],"entity":"a b/c_10000~\u007f"}`,
	// Fallback shapes the fast path must hand to encoding/json.
	`{"extra":1,"indicators":[[1]]}`,
	`{"indicators":[[1]],"extra":1}`,
	`{"indicators":[[1]]}`,
	`{"indicators":null}`,
	`{"indicators":[null]}`,
	`{"indicators":[[null]]}`,
	`{}`,
	`{"entity":"c1","t":7}`,
	`{"indicators":[[1]]} trailing`,
	`{"indicators":[[1]]}{"indicators":[[2]]}`,
	`{"indicators":[[1]],"indicators":[[2,3]]}`,
	`{"indicators":[[1]],"entity":"a","entity":"b"}`,
	`{"indicators":[[1]],"t":1,"t":2}`,
	`{"Indicators":[[1]],"ENTITY":"a","T":3}`,
	`{"indicators":[[1]],"t":1e2}`,
	`{"indicators":[[1]],"t":3.0}`,
	`{"indicators":[[1]],"t":9223372036854775808}`,
	`{"indicators":[[1]],"t":null}`,
	`{"indicators":[[1]],"t":"7"}`,
	`{"indicators":[[1]],"t":01}`,
	`{"indicators":[[1]],"t":-}`,
	`{"indicators":[[1]],"entity":null}`,
	`{"indicators":[[1]],"entity":7}`,
	`{"indicators":[[1]],"entity":"a\u00e9"}`,
	`{"indicators":[[1]],"entity":"a\"b"}`,
	"{\"indicators\":[[1]],\"entity\":\"a\u00e9\"}", // raw é
	"{\"indicators\":[[1]],\"entity\":\"a\xffb\"}",  // invalid UTF-8: stdlib rewrites to U+FFFD
	"{\"indicators\":[[1]],\"entity\":\"a\x01b\"}",  // control byte: stdlib rejects
	"{\"indicators\":[[1]],\"entity\":\"a\tb\"}",
	`{"indicators":[[1]],"entity":"open`,
	`{"indicators":[[1]],}`,
	`{"indicators":[[1]] "t":1}`,
	`{"indicators":[[1,[2]]]}`,
	`{"indicators":[[1],2]}`,
	// Rejections that must stay rejections.
	`{"indicators":[[Inf]]}`,
	`{"indicators":[[NaN]]}`,
	`{"indicators":[[+1]]}`,
	`{"indicators":[[0x10]]}`,
	`{"indicators":[[01]]}`,
	`{"indicators":[[1.]]}`,
	`{"indicators":[[.5]]}`,
	`{"indicators":[[1e]]}`,
	`{"indicators":[[1,]]}`,
	`{"indicators":[[1],]}`,
	`{"indicators":[[1]`,
	`{nope`,
	``,
	`[[1,2]]`,
}

// TestDecodeForecastRequestMatchesStdlib feeds decodeCases through both
// the fast path and encoding/json and demands identical outcomes.
func TestDecodeForecastRequestMatchesStdlib(t *testing.T) {
	for _, body := range decodeCases {
		requireSameDecode(t, []byte(body))
	}
}

// FuzzDecodeForecastRequest: for any body at all, the fast path and
// encoding/json agree (see requireSameDecode).
func FuzzDecodeForecastRequest(f *testing.F) {
	for _, body := range decodeCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { requireSameDecode(t, body) })
}

// metadataBody is the body a resource manager posts: 8 × samples with
// the quality-tracking entity and t.
func metadataBody(t testing.TB, e *trace.EntitySeries, samples int) []byte {
	t.Helper()
	at := int64(1234)
	raw, err := json.Marshal(ForecastRequest{Indicators: tailOf(e, samples), Entity: e.ID, T: &at})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDecodeMetadataBodyStaysOnFastPath pins "one parse": the canonical
// body with entity and t is decoded by the scanner alone. Its allocations
// are the rows, the entity and t; entering encoding/json for the same
// body costs over a hundred.
func TestDecodeMetadataBodyStaysOnFastPath(t *testing.T) {
	p, e := fitted(t)
	raw := metadataBody(t, e, p.MinHistory())
	var req ForecastRequest
	if !fastParseForecast(raw, &req) {
		t.Fatal("canonical metadata body missed the fast path")
	}
	if req.Entity != e.ID || req.T == nil || *req.T != 1234 || len(req.Indicators) != trace.NumIndicators {
		t.Fatalf("fast path decoded %q t=%v rows=%d", req.Entity, req.T, len(req.Indicators))
	}
	allocs := testing.AllocsPerRun(50, func() {
		var req ForecastRequest
		if err := decodeForecastRequest(raw, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("decoding the metadata body allocates %.0f times, want ≤ 20 (encoding/json was entered)", allocs)
	}
}

// TestDecodeForecastRequestRoundTrip pushes randomized request bodies
// (the exact bytes a Go client produces) through the fast path and
// checks bitwise round-tripping.
func TestDecodeForecastRequestRoundTrip(t *testing.T) {
	r := tensor.NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		rows := 1 + int(r.Uint64()%8)
		var req ForecastRequest
		for i := 0; i < rows; i++ {
			cols := int(r.Uint64() % 70)
			row := make([]float64, cols)
			for j := range row {
				row[j] = r.NormFloat64() * math.Pow(10, float64(int(r.Uint64()%40))-20)
			}
			req.Indicators = append(req.Indicators, row)
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got ForecastRequest
		if err := decodeForecastRequest(raw, &got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !fastParseForecast(raw, &ForecastRequest{}) {
			t.Fatalf("trial %d: canonical body missed the fast path", trial)
		}
		for i := range req.Indicators {
			for j := range req.Indicators[i] {
				if math.Float64bits(got.Indicators[i][j]) != math.Float64bits(req.Indicators[i][j]) {
					t.Fatalf("trial %d: [%d][%d] drifted", trial, i, j)
				}
			}
		}
	}
}

func BenchmarkDecodeForecastFast(b *testing.B) {
	_, e := fitted(b)
	raw, _ := json.Marshal(ForecastRequest{Indicators: tailOf(e, 64)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req ForecastRequest
		if err := decodeForecastRequest(raw, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeForecastStdlib(b *testing.B) {
	_, e := fitted(b)
	raw, _ := json.Marshal(ForecastRequest{Indicators: tailOf(e, 64)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stdlibDecode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
