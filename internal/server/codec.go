package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The transform and probabilities endpoints speak one fixed JSON shape:
//
//	request:  {"rows":[[x11,x12,…],[x21,…],…]}
//	response: {"model":"<name>","version":N,"rows"|"probabilities":[[…],…]}\n
//
// This file is their codec. Decoding reads the whole body into a pooled
// buffer and parses the canonical request shape in one pass; any body
// outside that shape goes to encoding/json, which stays the only judge
// of unusual input. Encoding appends the response into the same pooled
// buffer, formatting floats exactly as encoding/json does, so a 200 body
// is byte-identical to json.Encoder's output for the same value.

// rowsBuf is one request's pooled codec state. Rows are decoded into
// one row-major slice, so a batch that passes the width check is
// already the kernel's input matrix.
//
// Ownership: a rowsBuf goes back to the pool only when nothing else can
// still touch it. After a Batcher.TransformRowInto error a late flush
// may still read the source row and write the destination, so that path
// drops the rowsBuf instead of releasing it.
type rowsBuf struct {
	body []byte    // the request body, then the response body
	vals []float64 // decoded rows, row-major
	ends []int     // ends[i] is the end offset of row i in vals
	out  []float64 // result rows, row-major
}

var rowsPool = sync.Pool{New: func() any { return new(rowsBuf) }}

func getRowsBuf() *rowsBuf { return rowsPool.Get().(*rowsBuf) }

func (rb *rowsBuf) release() { rowsPool.Put(rb) }

// n is the number of decoded rows.
func (rb *rowsBuf) n() int { return len(rb.ends) }

// row returns decoded row i.
func (rb *rowsBuf) row(i int) []float64 {
	start := 0
	if i > 0 {
		start = rb.ends[i-1]
	}
	return rb.vals[start:rb.ends[i]]
}

// result sizes rb.out to n rows of width and returns it.
func (rb *rowsBuf) result(width int) []float64 {
	need := rb.n() * width
	if cap(rb.out) < need {
		rb.out = make([]float64, need)
	}
	rb.out = rb.out[:need]
	return rb.out
}

// ---- decode ----

// decodeRows reads and parses the request body into rb and bounds-checks
// the row count. Width checks against a concrete model version happen
// separately in checkRowWidths: under canary rollout the serving version
// is chosen per request key, after decoding.
func (s *Server) decodeRows(w http.ResponseWriter, r *http.Request, rb *rowsBuf) error {
	if err := s.readBody(w, r, rb); err != nil {
		return err
	}
	if !rb.parseCanonical() {
		if err := rb.decodeFallback(); err != nil {
			return err
		}
	}
	if rb.n() == 0 {
		return badRequest("request has no rows")
	}
	if rb.n() > s.cfg.MaxRows {
		return badRequest("request has %d rows, limit is %d", rb.n(), s.cfg.MaxRows)
	}
	return nil
}

// readBody reads the whole request body into rb.body, capped at
// MaxBodyBytes. A declared Content-Length over the cap is refused before
// reading; otherwise it sizes the buffer up front.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, rb *rowsBuf) error {
	limit := s.cfg.MaxBodyBytes
	if r.ContentLength > limit {
		return bodyTooLarge(limit)
	}
	want := 512
	if r.ContentLength >= 0 {
		want = int(r.ContentLength) + 1 // +1: the read that sees io.EOF needs room
	}
	b := rb.body[:0]
	if cap(b) < want {
		b = make([]byte, 0, want)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			rb.body = b
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return bodyTooLarge(tooLarge.Limit)
			}
			return badRequest("invalid request body: %v", err)
		}
	}
	rb.body = b
	return nil
}

func bodyTooLarge(limit int64) *httpError {
	return &httpError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("body exceeds %d bytes", limit)}
}

// parseCanonical parses rb.body as {"rows":[[n,…],…]} with JSON
// whitespace anywhere between tokens. It only ever accepts: on anything
// else — another or repeated key, an escaped key, null, a token outside
// the JSON number grammar, a number strconv.ParseFloat rejects, trailing
// data — it returns false and the body goes to decodeFallback.
func (rb *rowsBuf) parseCanonical() bool {
	b := rb.body
	rb.vals, rb.ends = rb.vals[:0], rb.ends[:0]
	i := skipSpace(b, 0)
	if !at(b, i, '{') {
		return false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], []byte(`"rows"`)) {
		return false
	}
	i = skipSpace(b, i+len(`"rows"`))
	if !at(b, i, ':') {
		return false
	}
	i = skipSpace(b, i+1)
	if !at(b, i, '[') {
		return false
	}
	i = skipSpace(b, i+1)
	for moreRows := !at(b, i, ']'); moreRows; {
		if !at(b, i, '[') {
			return false
		}
		i = skipSpace(b, i+1)
		for moreVals := !at(b, i, ']'); moreVals; {
			v, j, ok := parseNumber(b, i)
			if !ok {
				return false
			}
			rb.vals = append(rb.vals, v)
			if i, moreVals = nextElement(b, j); i < 0 {
				return false
			}
		}
		rb.ends = append(rb.ends, len(rb.vals))
		if i, moreRows = nextElement(b, i+1); i < 0 {
			return false
		}
	}
	i = skipSpace(b, i+1)
	if !at(b, i, '}') {
		return false
	}
	return skipSpace(b, i+1) == len(b)
}

// nextElement steps over the whitespace and separator after an array
// element ending at i. After a comma it returns the index of the next
// element and more = true; at the closing bracket it returns that
// bracket's index and more = false; on anything else it returns -1.
func nextElement(b []byte, i int) (next int, more bool) {
	i = skipSpace(b, i)
	switch {
	case at(b, i, ','):
		return skipSpace(b, i+1), true
	case at(b, i, ']'):
		return i, false
	}
	return -1, false
}

func at(b []byte, i int, c byte) bool { return i < len(b) && b[i] == c }

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i (JSON whitespace: space, tab, newline, carriage return).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// decodeFallback decodes rb.body with encoding/json, the reference for
// every body parseCanonical does not accept: unknown fields are
// rejected, and so is anything but whitespace after the object.
func (rb *rowsBuf) decodeFallback() error {
	dec := json.NewDecoder(bytes.NewReader(rb.body))
	dec.DisallowUnknownFields()
	var req struct {
		Rows [][]float64 `json:"rows"`
	}
	if err := dec.Decode(&req); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("invalid request body: data after the JSON object")
	}
	rb.vals, rb.ends = rb.vals[:0], rb.ends[:0]
	for _, row := range req.Rows {
		rb.vals = append(rb.vals, row...)
		rb.ends = append(rb.ends, len(rb.vals))
	}
	return nil
}

// ---- encode ----

// Result keys of the two endpoints' 200 bodies.
const (
	rowsKey          = "rows"
	probabilitiesKey = "probabilities"
)

var jsonContentType = []string{"application/json"}

// writeRows answers 200 with rb.out as width-wide rows under key. The
// body goes out with a Content-Length. A non-finite value, which JSON
// cannot carry, is found before anything is written and returned as the
// 400 to send instead.
func writeRows(w http.ResponseWriter, rb *rowsBuf, e *Entry, key string, width int) error {
	b, err := appendRows(rb.body[:0], e.Name, e.Version, key, rb.out, width)
	rb.body = b
	if err != nil {
		return err
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write means the client is gone
	return nil
}

// appendRows appends {"model":name,"version":version,key:[[…],…]}\n for
// the width-wide rows in vals, exactly as json.Encoder.Encode would.
func appendRows(b []byte, name string, version int, key string, vals []float64, width int) ([]byte, error) {
	b = append(b, `{"model":`...)
	b = appendString(b, name)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(b, `,"`...)
	b = append(b, key...)
	b = append(b, `":[`...)
	for i := 0; i < len(vals); i += width {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range vals[i : i+width] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b, badRequest("row %d: result %v is not finite; the input is outside the model's numeric range", i/width, v)
			}
			if j > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, v)
		}
		b = append(b, ']')
	}
	return append(b, "]}\n"...), nil
}

// appendFloat formats a finite v as encoding/json does: the shortest
// round-trip decimal, in 'e' notation below 1e-6 or from 1e21 up, with a
// one-digit negative exponent left unpadded.
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. A name that needs no escaping
// is copied as is; any other goes through encoding/json, so its HTML-safe
// escaping is exactly the Encoder's.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
