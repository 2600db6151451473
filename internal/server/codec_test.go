package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// oracleDecode is the request contract the codec must reproduce, stated
// with encoding/json alone: the body cap, the strict decode, nothing but
// whitespace after the object, then the row-count bounds. It returns the
// status decodeRows must answer with (200 = accepted) and, on accept,
// the rows.
func oracleDecode(body []byte, cfg Config) ([][]float64, int) {
	if int64(len(body)) > cfg.MaxBodyBytes {
		return nil, http.StatusRequestEntityTooLarge
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req rowsRequest
	if err := dec.Decode(&req); err != nil {
		return nil, http.StatusBadRequest
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, http.StatusBadRequest
	}
	if len(req.Rows) == 0 || len(req.Rows) > cfg.MaxRows {
		return nil, http.StatusBadRequest
	}
	return req.Rows, http.StatusOK
}

// decodeStatus runs decodeRows over body, with the Content-Length
// declared or (knownLength false) unknown, as for a chunked upload.
func decodeStatus(s *Server, body []byte, knownLength bool) (*rowsBuf, int) {
	req := httptest.NewRequest(http.MethodPost, "/v1/models/m/transform", bytes.NewReader(body))
	if !knownLength {
		req.ContentLength = -1
	}
	rb := new(rowsBuf)
	err := s.decodeRows(httptest.NewRecorder(), req, rb)
	if err == nil {
		return rb, http.StatusOK
	}
	if he, ok := err.(*httpError); ok {
		return rb, he.status
	}
	return rb, http.StatusInternalServerError
}

var decodeSeeds = []string{
	`{"rows":[[1,2,3]]}`,
	" {\r\n\t\"rows\" : [ [ 1 , -2.5e3 ] ,\n[0.1,1E-7] ] } \n",
	`{"rows":[[-0,0,5e-324,1.7976931348623157e308]]}`,
	`{"rows":[[]]}`,
	`{"rows":[]}`,
	`{"rows":[[1],[2],[3],[4],[5]]}`,
	`{"Rows":[[1,2]]}`,
	`{"ROWS":[[1,2]]}`,
	`{"\u0072ows":[[1,2]]}`,
	`{"rows":[[1,2]],"rows":[[3,4]]}`,
	`{"rows":[[1,2]],"rowz":[[3]]}`,
	`{"rows":null}`,
	`{"rows":[null]}`,
	`{"rows":[[null,1]]}`,
	`null`,
	`{}`,
	``,
	`{"rows":[[1e400]]}`,
	`{"rows":[[-1e400]]}`,
	`{"rows":[[1e-400]]}`,
	`{"rows":[[01]]}`,
	`{"rows":[[.5]]}`,
	`{"rows":[[1.]]}`,
	`{"rows":[[+1]]}`,
	`{"rows":[[0x1p3]]}`,
	`{"rows":[[Infinity]]}`,
	`{"rows":[[NaN]]}`,
	`{"rows":[[1e]]}`,
	`{"rows":[[1e+]]}`,
	`{"rows":[[-]]}`,
	`{"rows":[["1"]]}`,
	`{"rows":[[[1]]]}`,
	`{"rows":[[1,2],]}`,
	`{"rows":[[1,2,]]}`,
	`{"rows":[[1 2]]}`,
	`[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]`,
	`{"rows":[[1,2]]} trailing garbage`,
	`{"rows":[[1,2]]}{"rows":[[5,6]]}`,
	`{"rows":[[1,2]]}]`,
	`{"rows":[[1,2]]`,
	"\xef\xbb\xbf{\"rows\":[[1]]}",
	// Separators that are not JSON whitespace.
	"{\"rows\":[[1,\f2]]}",
	"{\"rows\":[[1,\v2]]}",
	"{\"rows\":[[1,\x002]]}",
	"{\"rows\":[[1,\u00a02]]}",
	"{\"rows\":[[1,\u20282]]}",
	`{"rows":[[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62]]}`,
}

// FuzzDecodeRows checks decodeRows against oracleDecode on arbitrary
// bodies: the same accept/reject decision (413 included, for a small
// MaxBodyBytes, with the length declared or not) and, on accept, the
// same rows bit for bit. Whatever the one-pass parser accepts, encoding/
// json therefore accepts too, with identical values.
func FuzzDecodeRows(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	s := &Server{cfg: Config{MaxBodyBytes: 256, MaxRows: 4}}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantStatus := oracleDecode(body, s.cfg)
		for _, known := range []bool{true, false} {
			rb, status := decodeStatus(s, body, known)
			if status != wantStatus {
				t.Fatalf("%q (length known %v): status %d, encoding/json says %d", body, known, status, wantStatus)
			}
			if status != http.StatusOK {
				continue
			}
			if rb.n() != len(want) {
				t.Fatalf("%q: %d rows, encoding/json decoded %d", body, rb.n(), len(want))
			}
			for i, row := range want {
				got := rb.row(i)
				if len(got) != len(row) {
					t.Fatalf("%q: row %d has %d values, encoding/json decoded %d", body, i, len(got), len(row))
				}
				for j := range row {
					if math.Float64bits(got[j]) != math.Float64bits(row[j]) {
						t.Fatalf("%q: row %d value %d = %v, encoding/json decoded %v", body, i, j, got[j], row[j])
					}
				}
			}
		}
	})
}

// TestParseCanonicalAcceptsOnlyTheFixedShape pins which bodies take the
// one-pass parser: the canonical shape with any JSON whitespace, and
// nothing that needs encoding/json's judgement.
func TestParseCanonicalAcceptsOnlyTheFixedShape(t *testing.T) {
	for _, body := range []string{
		`{"rows":[[1,2,3]]}`,
		" {\r\n\t\"rows\" : [ [ 1 , -2.5e3 ] ,\n[0.1,1E-7] ] } \n",
		`{"rows":[[-0,0,5e-324,1.7976931348623157e308]]}`,
		`{"rows":[[1e-400]]}`,
		`{"rows":[]}`,
		`{"rows":[[]]}`,
	} {
		if rb := (&rowsBuf{body: []byte(body)}); !rb.parseCanonical() {
			t.Errorf("%q: not parsed in one pass", body)
		}
	}
	for _, body := range []string{
		`{"Rows":[[1,2]]}`,
		`{"\u0072ows":[[1,2]]}`,
		`{"rows":[[1,2]],"rows":[[3,4]]}`,
		`{"rows":null}`,
		`{"rows":[null]}`,
		`{"rows":[[1e400]]}`,
		`{"rows":[[01]]}`,
		`{"rows":[[.5]]}`,
		`{"rows":[[1.]]}`,
		`{"rows":[[+1]]}`,
		`{"rows":[[0x1p3]]}`,
		`{"rows":[[Infinity]]}`,
		`{"rows":[[1,2]]} trailing garbage`,
		`{"rows":[[1,2]]}{"rows":[[5,6]]}`,
		``,
	} {
		if rb := (&rowsBuf{body: []byte(body)}); rb.parseCanonical() {
			t.Errorf("%q: accepted by the one-pass parser, want the encoding/json fallback", body)
		}
	}
}

// TestAppendRowsMatchesEncodingJSON is the encoder's identity check: for
// both endpoints' bodies, appendRows must write exactly what
// json.Encoder.Encode writes for the same value, across the float
// format's boundaries, 10k seeded normal values, and a model name that
// needs HTML-safe escaping.
func TestAppendRowsMatchesEncodingJSON(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, 9.99999e-7, 1e-6, -1e-6,
		0.1, 1, -1, 3, 100, 123456789, 1e20, 1e21, -1e21, 1.5e300,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewSource(1))
	normals := make([]float64, 10000)
	for i := range normals {
		normals[i] = rng.NormFloat64()
	}
	for _, name := range []string{"credit", `<&>"`, "<", "a&b", "x>y", "näme\u2028 \\\n\b"} {
		for _, c := range []struct {
			vals  []float64
			width int
		}{{edges, 1}, {edges, 3}, {normals, 17}, {normals, 1}} {
			vals := c.vals[:len(c.vals)/c.width*c.width]
			var rows [][]float64
			for i := 0; i < len(vals); i += c.width {
				rows = append(rows, vals[i:i+c.width])
			}
			for key, v := range map[string]any{
				rowsKey:          transformResponse{Model: name, Version: 12, Rows: rows},
				probabilitiesKey: probabilitiesResponse{Model: name, Version: 12, Probabilities: rows},
			} {
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(v); err != nil {
					t.Fatal(err)
				}
				got, err := appendRows(nil, name, 12, key, vals, c.width)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("name %q, %s, width %d: body differs from encoding/json\n got %.200s\nwant %.200s",
						name, key, c.width, got, want.Bytes())
				}
			}
		}
	}
	for _, v := range append(edges, normals...) {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, json.Marshal = %s", v, got, want)
		}
	}
}

func TestAppendRowsRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := appendRows(nil, "m", 1, rowsKey, []float64{1, 2, 3, v}, 2)
		he, ok := err.(*httpError)
		if !ok || he.status != http.StatusBadRequest {
			t.Fatalf("%v: err = %v, want a 400", v, err)
		}
		if want := "row 1: "; !bytes.HasPrefix([]byte(he.msg), []byte(want)) {
			t.Fatalf("%v: message %q does not name row 1", v, he.msg)
		}
	}
}
