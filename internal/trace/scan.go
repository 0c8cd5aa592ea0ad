package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/atof"
	"repro/internal/obs"
)

// numCSVFields is the fixed v2018 column count (entity, timestamp, and
// the eight indicators).
const numCSVFields = 2 + NumIndicators

// ScanCSV is the one usage-CSV reader: it parses a v2018-style usage CSV
// and hands each usable row to fn without materializing per-sample
// strings, records, or entity maps. The entity ID is passed as a byte
// slice into the scanner's internal buffer and is valid only for the
// duration of the callback — callers that need to retain it must copy
// (RingStore.Ingest does the map-lookup trick that avoids the copy for
// already-known entities).
//
// It is lenient: ragged rows, unparsable timestamps or values, and
// malformed quoting are skipped (counted in ReadStats, first few logged)
// rather than aborting; empty fields become NaN; an error is returned
// only when the input held rows but none were usable. Rows stream in file
// order, with no per-entity sort or duplicate-timestamp drop: the
// consumer does that (Ring.Append rejects non-advancing timestamps,
// ReadCSVStats sorts and de-duplicates).
//
// A value field is read once by atof.Parse, to the bits strconv gives.
// A field it does not read whole — the forms strconv also accepts ("+1",
// ".5", "007", "Inf", hex), and the tokens atof leaves to strconv — goes
// to strconv below, so ScanCSV accepts exactly the values and rows
// strconv does.
//
// A non-nil error from fn aborts the scan and is returned verbatim.
//
// Quoting is a subset of RFC 4180, the one encoding/csv reads: a field
// may be wrapped in double quotes, and the quotes are stripped. A quoted
// field cannot hold a comma, a quote (not even doubled) or a line break,
// and an unquoted field cannot hold a quote; a row with such a field is
// skipped. Every row ScanCSV accepts, encoding/csv reads to the same
// fields (FuzzScanCSV), and it accepts everything WriteCSV writes for
// entity IDs without commas, quotes or line breaks.
func ScanCSV(r io.Reader, fn func(entity []byte, ts int, vals *[NumIndicators]float64) error) (ReadStats, error) {
	var st ReadStats
	sc := scannerPool.Get().(*lineScanner)
	sc.reset(r)
	defer scannerPool.Put(sc)

	var vals [NumIndicators]float64
	var fields [numCSVFields][]byte
	line := 0
	for {
		ln, err := sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, fmt.Errorf("trace: reading csv: %w", err)
		}
		line++
		if len(ln) == 0 {
			continue
		}
		if line == 1 && bytes.HasPrefix(ln, []byte(csvHeader[0])) {
			continue // header row
		}
		n, wellFormed := splitComma(ln, &fields)
		if !wellFormed {
			st.skip(fmt.Errorf("trace: line %d: malformed quoting", line))
			continue
		}
		if n != len(csvHeader) {
			st.skip(fmt.Errorf("trace: line %d: %d fields, want %d", line, n, len(csvHeader)))
			continue
		}
		ts, err := strconv.Atoi(bstr(fields[1]))
		if err != nil {
			st.skip(fmt.Errorf("trace: line %d: bad timestamp %q", line, fields[1]))
			continue
		}
		ok := true
		for ci, ind := range csvIndicatorOrder {
			f := fields[2+ci]
			if len(f) == 0 {
				vals[ind] = math.NaN()
				continue
			}
			v, n, parsed := atof.Parse(f)
			if !parsed || n != len(f) {
				var err error
				if v, err = strconv.ParseFloat(bstr(f), 64); err != nil {
					st.skip(fmt.Errorf("trace: line %d: bad value %q", line, f))
					ok = false
					break
				}
			}
			vals[ind] = v
		}
		if !ok {
			continue
		}
		if err := fn(fields[0], ts, &vals); err != nil {
			return st, err
		}
		st.Rows++
	}
	if st.Skipped > 0 {
		obs.Logger("trace").Warn("csv scan skipped unusable rows",
			"skipped", st.Skipped, "kept", st.Rows)
	}
	if st.Rows == 0 && st.Skipped > 0 {
		return st, fmt.Errorf("trace: no usable rows (%d skipped, first: %w)",
			st.Skipped, st.Errors[0])
	}
	return st, nil
}

// bstr views a byte slice as a string without copying, for the strconv
// parsers (which never retain their argument).
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// splitComma splits ln on commas into fields, unwrapping simple external
// quotes. Returns the field count and whether every field was well
// formed; a field with unbalanced, interior or bare quotes (including a
// quoted comma) reports false and the caller skips the row.
func splitComma(ln []byte, fields *[numCSVFields][]byte) (int, bool) {
	quoted := bytes.IndexByte(ln, '"') >= 0
	n := 0
	for {
		if n == len(fields) {
			return n + 1, true // too many fields; caller rejects on count
		}
		var f []byte
		if i := bytes.IndexByte(ln, ','); i >= 0 {
			f, ln = ln[:i], ln[i+1:]
		} else {
			f, ln = ln, nil
		}
		if quoted {
			if len(f) > 0 && f[0] == '"' {
				if len(f) < 2 || f[len(f)-1] != '"' {
					return 0, false
				}
				f = f[1 : len(f)-1]
			}
			if bytes.IndexByte(f, '"') >= 0 {
				return 0, false
			}
		}
		fields[n] = f
		n++
		if ln == nil {
			return n, true
		}
	}
}

// lineScanner yields lines from a reader out of one reused buffer. A
// line that fits the buffer is returned as a view into it (no copy, no
// allocation); the buffer grows only when a single line exceeds it.
type lineScanner struct {
	r   io.Reader
	buf []byte
	pos int // start of unconsumed bytes
	end int // end of valid bytes
	err error
}

const scanBufSize = 64 << 10

var scannerPool = sync.Pool{
	New: func() any { return &lineScanner{buf: make([]byte, scanBufSize)} },
}

func (s *lineScanner) reset(r io.Reader) {
	s.r = r
	s.pos, s.end = 0, 0
	s.err = nil
}

// next returns the next line with the trailing '\n' (and '\r', if any)
// removed. io.EOF signals a clean end of input.
func (s *lineScanner) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(s.buf[s.pos:s.end], '\n'); i >= 0 {
			line := s.buf[s.pos : s.pos+i]
			s.pos += i + 1
			return trimCR(line), nil
		}
		if s.err != nil {
			if s.pos < s.end {
				line := s.buf[s.pos:s.end]
				s.pos = s.end
				return trimCR(line), nil
			}
			if s.err == io.EOF {
				return nil, io.EOF
			}
			return nil, s.err
		}
		if s.pos > 0 {
			copy(s.buf, s.buf[s.pos:s.end])
			s.end -= s.pos
			s.pos = 0
		}
		if s.end == len(s.buf) {
			grown := make([]byte, 2*len(s.buf))
			copy(grown, s.buf[:s.end])
			s.buf = grown
		}
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			s.err = err
		}
	}
}

func trimCR(line []byte) []byte {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		return line[:len(line)-1]
	}
	return line
}
