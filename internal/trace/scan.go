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
// A row is read in one pass (scanRow). A value field is read once by
// atof.Parse, to the bits strconv gives, and ends where the token does.
// A field it does not read whole — quoted, empty, the forms strconv also
// accepts ("+1", ".5", "007", "Inf", hex), and the tokens atof leaves to
// strconv — is cut at its comma and goes to strconv, so ScanCSV accepts
// exactly the values and rows strconv does.
//
// A non-nil error from fn aborts the scan and is returned verbatim. A
// read error other than io.EOF ends it too, wrapped, and the unterminated
// line before the error is dropped.
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
		entity, ts, err := scanRow(ln, line, &vals)
		if err != nil {
			st.skip(err)
			continue
		}
		if err := fn(entity, ts, &vals); err != nil {
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

// scanRow reads one data row left to right, in one pass: the entity, the
// timestamp, then the values into *vals. A value field ends where
// atof.Parse stops, which must be at the comma (or, for the last, at the
// end of the line); any field it does not read whole is cut at its comma
// and read by the quote rules and strconv. A non-nil error says why the
// row is skipped.
func scanRow(ln []byte, line int, vals *[NumIndicators]float64) (entity []byte, ts int, err error) {
	entity, rest, more, ok := cutField(ln)
	if !ok {
		return nil, 0, fmt.Errorf("trace: line %d: malformed quoting", line)
	}
	if !more {
		return nil, 0, fieldCount(line, 1)
	}
	// A timestamp of plain digits ending at its comma is Atoi's value; any
	// other form goes to Atoi.
	i := 0
	for ; i < len(rest) && i < 18 && isDigit(rest[i]); i++ {
		ts = ts*10 + int(rest[i]-'0')
	}
	if i > 0 && i < len(rest) && rest[i] == ',' {
		rest = rest[i+1:]
	} else {
		f, r, more, ok := cutField(rest)
		switch {
		case !ok:
			return nil, 0, fmt.Errorf("trace: line %d: malformed quoting", line)
		case !more:
			return nil, 0, fieldCount(line, 2)
		}
		if ts, err = strconv.Atoi(bstr(f)); err != nil {
			return nil, 0, fmt.Errorf("trace: line %d: bad timestamp %q", line, f)
		}
		rest = r
	}
	for ci, ind := range csvIndicatorOrder {
		last := ci == NumIndicators-1
		if v, n, ok := atof.Parse(rest); ok {
			if n == len(rest) && last {
				vals[ind] = v
				continue
			}
			if n < len(rest) && rest[n] == ',' && !last {
				vals[ind] = v
				rest = rest[n+1:]
				continue
			}
		}
		f, r, more, ok := cutField(rest)
		switch {
		case !ok:
			return nil, 0, fmt.Errorf("trace: line %d: malformed quoting", line)
		case more == last:
			return nil, 0, fieldCount(line, 3+ci)
		case len(f) == 0:
			vals[ind] = math.NaN()
		default:
			if vals[ind], err = strconv.ParseFloat(bstr(f), 64); err != nil {
				return nil, 0, fmt.Errorf("trace: line %d: bad value %q", line, f)
			}
		}
		rest = r
	}
	return entity, ts, nil
}

// fieldCount reports a row that ends after n fields; n == numCSVFields
// means the last column is followed by more.
func fieldCount(line, n int) error {
	if n == numCSVFields {
		return fmt.Errorf("trace: line %d: more than %d fields", line, numCSVFields)
	}
	return fmt.Errorf("trace: line %d: %d fields, want %d", line, n, numCSVFields)
}

// cutField cuts ln at its first comma into the field, with simple
// external quotes unwrapped, and the rest; more reports that a comma was
// found. A field with unbalanced, interior or bare quotes (a quoted comma
// included) reports !ok and the caller skips the row.
func cutField(ln []byte) (f, rest []byte, more, ok bool) {
	f = ln
	if i := bytes.IndexByte(ln, ','); i >= 0 {
		f, rest, more = ln[:i], ln[i+1:], true
	}
	if len(f) > 0 && f[0] == '"' {
		if len(f) < 2 || f[len(f)-1] != '"' {
			return nil, nil, false, false
		}
		f = f[1 : len(f)-1]
	}
	return f, rest, more, bytes.IndexByte(f, '"') < 0
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

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
// removed. io.EOF signals a clean end of input, after which a last line
// with no newline is still returned. Any other read error is returned in
// place of the unterminated tail: a body cut off mid-row must not deliver
// the half it got.
func (s *lineScanner) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(s.buf[s.pos:s.end], '\n'); i >= 0 {
			line := s.buf[s.pos : s.pos+i]
			s.pos += i + 1
			return trimCR(line), nil
		}
		if s.err != nil {
			if s.err == io.EOF && s.pos < s.end {
				line := s.buf[s.pos:s.end]
				s.pos = s.end
				return trimCR(line), nil
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
