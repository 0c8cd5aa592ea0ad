package server

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unsafe"

	"repro/internal/trace"
)

// Fast path for the /v1/forecast request body. The body is one shape —
// {"indicators": [[...],[...]], "entity": "c1", "t": 1234}, the last two
// optional — and decoding it through encoding/json reflection costs more
// than the model forward it feeds, so the hot parser below scans the
// bytes directly and hands each number token to strconv (the same
// routines encoding/json uses, so values are bitwise identical). Anything
// unexpected — escapes or non-ASCII in a string, unknown or repeated
// fields, nulls, a fractional t, malformed numbers — falls back to
// encoding/json, which stays the single source of truth for error
// behavior and every odd case.

// decodeForecastRequest parses body into req, preferring the scanning
// fast path and falling back to encoding/json when the body is not the
// canonical shape.
func decodeForecastRequest(body []byte, req *ForecastRequest) error {
	if fastParseForecast(body, req) {
		return nil
	}
	*req = ForecastRequest{}
	// Decoder (not Unmarshal) keeps the historical behavior of ignoring
	// trailing data after the top-level object.
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// fastParseForecast attempts the strict canonical parse. It reports
// false — leaving req in an undefined state — whenever the body deviates
// from one object holding "indicators": [[number...]...] and at most one
// each of "entity": "<plain ASCII>" and "t": <integer>, in any order,
// with plain whitespace.
func fastParseForecast(body []byte, req *ForecastRequest) bool {
	p := &fastParser{buf: body}
	p.ws()
	if !p.lit('{') {
		return false
	}
	var haveIndicators, haveEntity, haveT bool
	for {
		p.ws()
		key, ok := p.str()
		if !ok {
			return false
		}
		p.ws()
		if !p.lit(':') {
			return false
		}
		p.ws()
		switch string(key) {
		case "indicators":
			if haveIndicators {
				return false
			}
			haveIndicators = true
			if req.Indicators, ok = p.rows(); !ok {
				return false
			}
		case "entity":
			if haveEntity {
				return false
			}
			haveEntity = true
			v, ok := p.str()
			if !ok {
				return false
			}
			req.Entity = string(v)
		case "t":
			if haveT {
				return false
			}
			haveT = true
			v, ok := p.integer()
			if !ok {
				return false
			}
			req.T = &v
		default:
			return false // unknown (or differently-cased) key
		}
		p.ws()
		if p.lit(',') {
			continue
		}
		if !p.lit('}') {
			return false
		}
		break
	}
	p.ws()
	// Trailing bytes or no indicators: let encoding/json decide.
	return haveIndicators && p.pos == len(p.buf)
}

type fastParser struct {
	buf []byte
	pos int
}

func (p *fastParser) ws() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

func (p *fastParser) lit(c byte) bool {
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// str scans a quoted string of plain ASCII: no escape, no control byte,
// no byte ≥ 0x80 — the strings whose bytes are their value. The rest
// (escapes to resolve, invalid UTF-8 that encoding/json rewrites to
// U+FFFD) are not this parser's business.
func (p *fastParser) str() ([]byte, bool) {
	if !p.lit('"') {
		return nil, false
	}
	start := p.pos
	for ; p.pos < len(p.buf); p.pos++ {
		switch c := p.buf[p.pos]; {
		case c == '"':
			p.pos++
			return p.buf[start : p.pos-1], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// integer scans a JSON number with no fraction and no exponent and
// converts it with strconv.ParseInt, as encoding/json does for an int64
// field. A token that goes on (".", "e") is left for the caller to trip
// over, and overflow reports false.
func (p *fastParser) integer() (int64, bool) {
	start := p.pos
	p.lit('-')
	switch {
	case p.lit('0'):
	case p.digit():
		for p.digit() {
		}
	default:
		return 0, false
	}
	tok := p.buf[start:p.pos]
	v, err := strconv.ParseInt(unsafe.String(&tok[0], len(tok)), 10, 64)
	return v, err == nil
}

// rows parses the array-of-arrays of numbers.
func (p *fastParser) rows() ([][]float64, bool) {
	if !p.lit('[') {
		return nil, false
	}
	p.ws()
	if p.lit(']') {
		return [][]float64{}, true
	}
	rows := make([][]float64, 0, trace.NumIndicators)
	for {
		row, ok := p.row()
		if !ok {
			return nil, false
		}
		rows = append(rows, row)
		p.ws()
		if p.lit(',') {
			p.ws()
			continue
		}
		if p.lit(']') {
			return rows, true
		}
		return nil, false
	}
}

func (p *fastParser) row() ([]float64, bool) {
	if !p.lit('[') {
		return nil, false
	}
	p.ws()
	if p.lit(']') {
		return []float64{}, true
	}
	// A row of n numbers holds n-1 commas before its bracket closes, so
	// one allocation fits it; a row that is not all numbers fails below,
	// and the guess never exceeds the bytes the client actually sent.
	end := bytes.IndexByte(p.buf[p.pos:], ']')
	if end < 0 {
		return nil, false
	}
	row := make([]float64, 0, bytes.Count(p.buf[p.pos:p.pos+end], []byte(","))+1)
	for {
		v, ok := p.number()
		if !ok {
			return nil, false
		}
		row = append(row, v)
		p.ws()
		if p.lit(',') {
			p.ws()
			continue
		}
		if p.lit(']') {
			return row, true
		}
		return nil, false
	}
}

// number scans one token matching the JSON number grammar and converts
// it with strconv.ParseFloat. The grammar check runs first: ParseFloat
// alone is laxer than JSON (it takes "Inf", "NaN", hex floats, a leading
// "+"), and those must keep failing exactly as encoding/json fails them.
func (p *fastParser) number() (float64, bool) {
	start := p.pos
	p.lit('-')
	// Integer part: one 0, or a nonzero digit followed by digits.
	switch {
	case p.lit('0'):
	case p.digit():
		for p.digit() {
		}
	default:
		return 0, false
	}
	if p.lit('.') {
		if !p.digit() {
			return 0, false
		}
		for p.digit() {
		}
	}
	if p.pos < len(p.buf) && (p.buf[p.pos] == 'e' || p.buf[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.buf) && (p.buf[p.pos] == '+' || p.buf[p.pos] == '-') {
			p.pos++
		}
		if !p.digit() {
			return 0, false
		}
		for p.digit() {
		}
	}
	// Zero-copy string view: ParseFloat does not retain its argument, so
	// aliasing the request buffer is safe and skips one allocation per
	// number — the bulk of the parse cost for long histories.
	tok := p.buf[start:p.pos]
	v, err := strconv.ParseFloat(unsafe.String(&tok[0], len(tok)), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func (p *fastParser) digit() bool {
	if p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
		p.pos++
		return true
	}
	return false
}
