package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"time"
)

// client is one keep-alive HTTP/1.1 connection driven synchronously: one
// write, one read, no goroutines, so that a measured round trip is the
// server's time plus the socket and not the scheduling of a client library.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// postHeader is the request head for a body of n bytes; the body follows it.
func postHeader(dst []byte, path, contentType string, n int) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\nContent-Type: "...)
	dst = append(dst, contentType...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "\r\n\r\n"...)
}

func postRequest(path, contentType string, body []byte) []byte {
	return append(postHeader(nil, path, contentType, len(body)), body...)
}

// requestBody returns the body of a request postRequest built.
func requestBody(req []byte) []byte {
	return req[bytes.Index(req, []byte("\r\n\r\n"))+4:]
}

// do sends one complete request and reads one complete response. The body
// returned is valid until the next call.
func (c *client) do(req []byte) (status int, body []byte, err error) {
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, fmt.Errorf("write request: %w", err)
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("read status line: %w", err)
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := -1, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("read header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if v, ok := headerValue(line, "content-length:"); ok {
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("header %q: %w", line, err)
			}
		} else if v, ok := headerValue(line, "transfer-encoding:"); ok {
			chunked = bytes.EqualFold(v, []byte("chunked"))
		} else if v, ok := headerValue(line, "connection:"); ok && bytes.EqualFold(v, []byte("close")) {
			return 0, nil, errors.New("server closed the keep-alive connection")
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, fmt.Errorf("read chunk size: %w", err)
			}
			n, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("chunk size %q: %w", line, err)
			}
			if err := c.readBody(int(n) + 2); err != nil { // chunk and its CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				return status, c.body, nil
			}
		}
	case length >= 0:
		return status, c.body, c.readBody(length)
	}
	return 0, nil, errors.New("response has neither Content-Length nor chunked encoding")
}

func (c *client) readBody(n int) error {
	at := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	if _, err := io.ReadFull(c.br, c.body[at:]); err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	return nil
}

func headerValue(line []byte, lowerName string) ([]byte, bool) {
	if len(line) < len(lowerName) || !bytes.EqualFold(line[:len(lowerName)], []byte(lowerName)) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(lowerName):]), true
}

// parseForecast checks a forecast response body and appends its values to
// dst: not degraded, exactly `horizon` values, all finite.
func parseForecast(dst []float64, body []byte) ([]float64, error) {
	if bytes.Contains(body, []byte(`"degraded":true`)) {
		return dst, errors.New("degraded forecast")
	}
	const key = `"forecast":[`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return dst, fmt.Errorf("no forecast in %q", body)
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, ']')
	if j < 0 {
		return dst, fmt.Errorf("unterminated forecast in %q", body)
	}
	n := 0
	for _, f := range bytes.Split(rest[:j], []byte(",")) {
		v, err := strconv.ParseFloat(string(f), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, fmt.Errorf("bad forecast value %q", f)
		}
		dst = append(dst, v)
		n++
	}
	if n != horizon {
		return dst[:len(dst)-n], fmt.Errorf("forecast has %d values, want %d", n, horizon)
	}
	return dst, nil
}

// intField reads a non-negative integer field of a flat JSON object.
func intField(body []byte, name string) (int, error) {
	key := []byte(`"` + name + `":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, fmt.Errorf("no %q in %q", name, body)
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return strconv.Atoi(string(rest[:j]))
}
