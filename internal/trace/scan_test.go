package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// TestScanCSVSalvagesCorruptedFixture runs the streaming scanner over
// the same dirty fixture as the batch loader. The salvage accounting
// differs only where documented: ScanCSV streams rows in file order and
// does not drop duplicate timestamps (that moves to Ring.Append), so the
// duplicate m_1@0 row is delivered rather than skipped.
func TestScanCSVSalvagesCorruptedFixture(t *testing.T) {
	type row struct {
		entity string
		ts     int
	}
	var got []row
	st, err := ScanCSV(strings.NewReader(corruptedFixture), func(entity []byte, ts int, vals *[NumIndicators]float64) error {
		got = append(got, row{string(entity), ts})
		return nil
	})
	if err != nil {
		t.Fatalf("lenient scan aborted: %v", err)
	}
	if st.Rows != 5 {
		t.Fatalf("salvaged rows = %d, want 5", st.Rows)
	}
	// Dropped: ragged row, bad timestamp, "null" value, malformed quote.
	if st.Skipped != 4 {
		t.Fatalf("skipped rows = %d, want 4 (errors: %v)", st.Skipped, st.Errors)
	}
	want := []row{{"m_1", 20}, {"m_1", 0}, {"m_1", 0}, {"m_1", 10}, {"m_2", 10}}
	if len(got) != len(want) {
		t.Fatalf("delivered %d rows: %v", len(got), got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("row %d = %v, want %v", i, got[i], w)
		}
	}
}

// TestScanCSVValuesMatchBatchLoader round-trips a clean generated trace
// through ScanCSV and through ReadCSVStats' per-entity collection of its
// rows, and demands identical values sample for sample.
func TestScanCSVValuesMatchBatchLoader(t *testing.T) {
	es := Generate(GeneratorConfig{Entities: 3, Kind: Container, Samples: 40, Seed: 9})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, es); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	batch, _, err := ReadCSVStats(bytes.NewReader(data), Container)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*EntitySeries{}
	for _, e := range batch {
		byID[e.ID] = e
	}

	seen := map[string]int{}
	st, err := ScanCSV(bytes.NewReader(data), func(entity []byte, ts int, vals *[NumIndicators]float64) error {
		e := byID[string(entity)]
		if e == nil {
			return fmt.Errorf("unknown entity %q", entity)
		}
		idx := seen[string(entity)]
		seen[string(entity)]++
		if ts != idx*e.Interval {
			return fmt.Errorf("entity %q sample %d: ts %d, want %d", entity, idx, ts, idx*e.Interval)
		}
		for i := 0; i < NumIndicators; i++ {
			w := e.Metrics[i][idx]
			if v := vals[i]; v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
				return fmt.Errorf("entity %q sample %d indicator %d: %g, want %g", entity, idx, i, v, w)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 3*40 || st.Skipped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestScanCSVAllRowsBadIsError mirrors the batch loader's contract.
func TestScanCSVAllRowsBadIsError(t *testing.T) {
	bad := "m_1,notanumber,1,2,3,4,5,6,7,8\nm_1,also,bad\n"
	st, err := ScanCSV(strings.NewReader(bad), func([]byte, int, *[NumIndicators]float64) error { return nil })
	if err == nil {
		t.Fatal("zero salvageable rows must error")
	}
	if st.Rows != 0 || st.Skipped != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestScanCSVCallbackErrorAborts checks a callback error stops the scan
// and surfaces verbatim.
func TestScanCSVCallbackErrorAborts(t *testing.T) {
	es := Generate(GeneratorConfig{Entities: 1, Kind: Machine, Samples: 10, Seed: 1})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, es); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	calls := 0
	_, err := ScanCSV(&buf, func([]byte, int, *[NumIndicators]float64) error {
		calls++
		if calls == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if calls != 3 {
		t.Fatalf("callback ran %d times, want 3", calls)
	}
}

// TestScanCSVLongLines exercises buffer compaction and growth: rows far
// longer than the refill chunks still parse intact.
func TestScanCSVLongLines(t *testing.T) {
	pad := strings.Repeat("x", 3*scanBufSize/2)
	input := "entity_" + pad + ",10,1,2,3,4,5,6,7,8\n" +
		"m_2,20,1,2,3,4,5,6,7,8" // no trailing newline
	var ids []string
	st, err := ScanCSV(strings.NewReader(input), func(entity []byte, ts int, vals *[NumIndicators]float64) error {
		ids = append(ids, string(entity))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 2 || st.Skipped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if ids[0] != "entity_"+pad || ids[1] != "m_2" {
		t.Fatalf("ids = [%d bytes, %q]", len(ids[0]), ids[1])
	}
}

// TestScanCSVDropsTruncatedTail: a read error other than io.EOF — a
// client that disconnects, a body past its size limit — ends the scan
// with that error, and the unterminated line before it is not delivered.
func TestScanCSVDropsTruncatedTail(t *testing.T) {
	body := "m_1,10,1,2,3,4,5,6,7,8\nm_1,20,1,2,3,4,5,6,7,3.14"
	reset := errors.New("connection reset")
	for name, r := range map[string]io.Reader{
		"error-after-data": io.MultiReader(strings.NewReader(body), iotest.ErrReader(reset)),
		"error-with-data":  iotest.DataErrReader(io.MultiReader(strings.NewReader(body), iotest.ErrReader(reset))),
	} {
		var ts []int
		_, err := ScanCSV(r, func(_ []byte, t int, _ *[NumIndicators]float64) error {
			ts = append(ts, t)
			return nil
		})
		if !errors.Is(err, reset) {
			t.Fatalf("%s: err = %v, want the read error", name, err)
		}
		if len(ts) != 1 || ts[0] != 10 {
			t.Fatalf("%s: delivered timestamps %v, want [10]", name, ts)
		}
	}
}

// TestScanCSVKeepsFinalLineAtEOF: at a clean end of input, a last line
// with no newline is a row like any other, even when io.EOF comes with
// the data.
func TestScanCSVKeepsFinalLineAtEOF(t *testing.T) {
	body := "m_1,10,1,2,3,4,5,6,7,8\nm_1,20,1,2,3,4,5,6,7,3.14"
	for name, r := range map[string]io.Reader{
		"eof-after-data": strings.NewReader(body),
		"eof-with-data":  iotest.DataErrReader(strings.NewReader(body)),
	} {
		var last [NumIndicators]float64
		st, err := ScanCSV(r, func(_ []byte, _ int, vals *[NumIndicators]float64) error {
			last = *vals
			return nil
		})
		if err != nil || st.Rows != 2 || last[DiskIOPercent] != 3.14 {
			t.Fatalf("%s: rows %d, err %v, last disk_io %v; want 2 rows ending in 3.14", name, st.Rows, err, last[DiskIOPercent])
		}
	}
}

// TestScanCSVSteadyStateAllocations pins the zero-copy claim: scanning a
// large clean input into a warmed RingStore must cost a small constant
// number of allocations per scan — none per sample or per row.
func TestScanCSVSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation defeats escape analysis; allocation counts are meaningless")
	}
	const entities, samples = 8, 200
	es := Generate(GeneratorConfig{Entities: entities, Kind: Machine, Samples: samples, Seed: 4})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, es); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	store := NewBoundedRingStore(64, 0)
	rd := bytes.NewReader(data)
	ingest := func(entity []byte, ts int, vals *[NumIndicators]float64) error {
		store.Ingest(entity, ts, vals)
		return nil
	}
	// Warm: create all rings and the pooled scanner buffer. Later passes
	// re-deliver old timestamps, which the rings reject without
	// allocating — exactly the steady state of a tailing ingester.
	if _, err := ScanCSV(rd, ingest); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(data)
		if _, err := ScanCSV(rd, ingest); err != nil {
			t.Fatal(err)
		}
	})
	// The constant overhead is the vals/fields escape into the callback
	// closure — independent of the 1600 rows scanned.
	if allocs > 4 {
		t.Fatalf("steady-state scan allocates %.1f times per pass over %d rows, want ≤ 4",
			allocs, entities*samples)
	}
}

// BenchmarkScanCSV measures streaming scan throughput (MB/s) into a
// warmed ring store; allocs/op must stay flat at the constant overhead.
func BenchmarkScanCSV(b *testing.B) {
	es := Generate(GeneratorConfig{Entities: 16, Kind: Machine, Samples: 500, Seed: 4})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, es); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	store := NewBoundedRingStore(64, 0)
	ingest := func(entity []byte, ts int, vals *[NumIndicators]float64) error {
		store.Ingest(entity, ts, vals)
		return nil
	}
	rd := bytes.NewReader(data)
	if _, err := ScanCSV(rd, ingest); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		if _, err := ScanCSV(rd, ingest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadCSVStats is the batch-loader baseline for the same input
// shape; its allocation count is pinned by the slab-building rewrite.
func BenchmarkReadCSVStats(b *testing.B) {
	es := Generate(GeneratorConfig{Entities: 16, Kind: Machine, Samples: 500, Seed: 4})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, es); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadCSVStats(bytes.NewReader(data), Machine); err != nil {
			b.Fatal(err)
		}
	}
}

// scannedRow is one row ScanCSV delivered, with its entity copied out of
// the scanner's buffer.
type scannedRow struct {
	entity string
	ts     int
	vals   [NumIndicators]float64
}

func scanRows(t *testing.T, data []byte) []scannedRow {
	t.Helper()
	var rows []scannedRow
	st, err := ScanCSV(bytes.NewReader(data), func(entity []byte, ts int, vals *[NumIndicators]float64) error {
		rows = append(rows, scannedRow{string(entity), ts, *vals})
		return nil
	})
	if st.Rows != len(rows) {
		t.Fatalf("stats count %d rows, callback saw %d", st.Rows, len(rows))
	}
	if err != nil && (len(rows) > 0 || st.Skipped == 0) {
		t.Fatalf("error %v after %d rows and %d skips", err, len(rows), st.Skipped)
	}
	return rows
}

// FuzzScanCSV holds ScanCSV to encoding/csv line by line. Every line
// ScanCSV accepts must parse under encoding/csv to the same ten fields:
// the same entity bytes, the timestamp and every value bit for bit, an
// empty field as NaN. A line with no quote or carriage return that
// encoding/csv splits into ten fields strconv reads must be accepted. A whole input delivers exactly the rows its lines
// deliver one at a time, in order, whatever the buffer boundaries —
// which also checks the entity bytes handed to the callback are not
// overwritten by later reads. Nothing may panic.
func FuzzScanCSV(f *testing.F) {
	f.Add([]byte(corruptedFixture))
	f.Add([]byte("m_1,0,1,2,3,4,5,6,7,8\r\n\"m 2\",10,1,,3,4,5,6,7,\"8\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		whole := scanRows(t, data)
		var perLine []scannedRow
		for i, ln := range bytes.Split(data, []byte("\n")) {
			if i == 0 && bytes.HasPrefix(ln, []byte(csvHeader[0])) {
				continue // the header, which ScanCSV skips on line 1 only
			}
			// Behind a header, a line is never line 1.
			rows := scanRows(t, append([]byte("entity_id\n"), ln...))
			ln = bytes.TrimSuffix(ln, []byte("\r"))
			if len(rows) == 0 {
				if readable(ln) {
					t.Fatalf("ScanCSV skipped %q, which encoding/csv and strconv read", ln)
				}
				continue
			}
			rec, err := csv.NewReader(bytes.NewReader(ln)).Read()
			if err != nil {
				t.Fatalf("ScanCSV accepted %q, encoding/csv rejects it: %v", ln, err)
			}
			if len(rows) != 1 || len(rec) != numCSVFields {
				t.Fatalf("line %q: ScanCSV %d rows, encoding/csv %d fields", ln, len(rows), len(rec))
			}
			r := rows[0]
			ts, err := strconv.Atoi(rec[1])
			if r.entity != rec[0] || err != nil || r.ts != ts {
				t.Fatalf("line %q: ScanCSV (%q, %d), encoding/csv (%q, %q)", ln, r.entity, r.ts, rec[0], rec[1])
			}
			for ci, ind := range csvIndicatorOrder {
				want := math.NaN()
				if fld := rec[2+ci]; fld != "" {
					if want, err = strconv.ParseFloat(fld, 64); err != nil {
						t.Fatalf("line %q: ScanCSV accepted value %q", ln, fld)
					}
				}
				if math.Float64bits(r.vals[ind]) != math.Float64bits(want) {
					t.Fatalf("line %q field %d: ScanCSV %v, encoding/csv %v", ln, 2+ci, r.vals[ind], want)
				}
			}
			perLine = append(perLine, r)
		}
		if len(whole) != len(perLine) {
			t.Fatalf("whole input delivered %d rows, its lines %d", len(whole), len(perLine))
		}
		for i := range whole {
			a, b := whole[i], perLine[i]
			if a.entity != b.entity || a.ts != b.ts || !sameBits(a.vals[:], b.vals[:]) {
				t.Fatalf("row %d: whole input %+v, line alone %+v", i, a, b)
			}
		}
	})
}

// readable reports whether a line with no quote or carriage return splits
// under encoding/csv into ten fields that strconv reads: an Atoi
// timestamp and values that are empty or ParseFloat's.
func readable(ln []byte) bool {
	if bytes.ContainsAny(ln, "\"\r") {
		return false // ScanCSV's quoting is a subset; csv drops a final \r
	}
	rec, err := csv.NewReader(bytes.NewReader(ln)).Read()
	if err != nil || len(rec) != numCSVFields {
		return false
	}
	if _, err := strconv.Atoi(rec[1]); err != nil {
		return false
	}
	for _, f := range rec[2:] {
		if _, err := strconv.ParseFloat(f, 64); f != "" && err != nil {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
