package server

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unsafe"

	"repro/internal/atof"
	"repro/internal/trace"
)

// Fast path for the /v1/forecast request body. The body is one shape —
// {"indicators": [[...],[...]], "entity": "c1", "t": 1234}, the last two
// optional — and decoding it through encoding/json reflection costs more
// than the model forward it feeds, so the hot parser below scans the
// bytes directly and reads each number once with atof.Parse, which checks
// the JSON grammar and converts in the same pass to the value
// encoding/json would give, bit for bit (strconv, which encoding/json
// itself calls, converts the rare token atof leaves to it). Anything
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

// rows parses the array-of-arrays of numbers into one backing array,
// each row a sub-slice of it capped at its own length. Numbers in the
// rows are separated by commas, so the commas left in the body bound how
// many there are: the slab never holds more numbers than the client sent
// bytes, and a body that is not all numbers fails below.
func (p *fastParser) rows() ([][]float64, bool) {
	if !p.lit('[') {
		return nil, false
	}
	p.ws()
	if p.lit(']') {
		return [][]float64{}, true
	}
	slab := make([]float64, 0, bytes.Count(p.buf[p.pos:], []byte(","))+1)
	rows := make([][]float64, 0, trace.NumIndicators)
	for {
		start := len(slab)
		var ok bool
		if slab, ok = p.row(slab); !ok {
			return nil, false
		}
		rows = append(rows, slab[start:len(slab):len(slab)])
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

// row appends one array of numbers to slab.
func (p *fastParser) row(slab []float64) ([]float64, bool) {
	if !p.lit('[') {
		return nil, false
	}
	p.ws()
	if p.lit(']') {
		return slab, true
	}
	for {
		v, ok := p.number()
		if !ok {
			return nil, false
		}
		slab = append(slab, v)
		p.ws()
		if p.lit(',') {
			p.ws()
			continue
		}
		if p.lit(']') {
			return slab, true
		}
		return nil, false
	}
}

// number reads one JSON number token. atof.Parse checks the grammar and
// converts in the same pass, so "Inf", "NaN", hex floats and a leading
// "+" — which strconv would take — keep failing exactly as encoding/json
// fails them.
func (p *fastParser) number() (float64, bool) {
	v, n, ok := atof.Parse(p.buf[p.pos:])
	p.pos += n
	return v, ok
}

func (p *fastParser) digit() bool {
	if p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
		p.pos++
		return true
	}
	return false
}
