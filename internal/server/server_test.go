package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer spins up a server over a temp model directory holding
// credit v1+v2 and hiring v1.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	writeModelFile(t, dir, "credit.json", testModel(2, 3))
	writeModelFile(t, dir, "credit@v2.json", testModel(4, 3))
	writeModelFile(t, dir, "hiring.json", testModel(3, 5))
	cfg.ModelDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestTransformRoundTripMatchesModel(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	entry, _ := s.Registry().Get("credit")

	rows := [][]float64{
		{0.5, -1, 2},
		{1, 1, 1},
		{0, 0, 0},
	}
	resp, body := postJSON(t, ts.URL+"/v1/models/credit/transform", rowsRequest{Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var tr transformResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Model != "credit" || tr.Version != 2 {
		t.Fatalf("resolved %s@v%d, want credit latest (v2)", tr.Model, tr.Version)
	}
	// The acceptance bar: served rows identical to the model's checked transform.
	for i, row := range rows {
		want := wantRow(t, entry.Model, row)
		for j := range want {
			if tr.Rows[i][j] != want[j] {
				t.Fatalf("row %d differs from Model.TransformRowChecked: %v vs %v", i, tr.Rows[i], want)
			}
		}
	}
}

// TestRowsResponseWireFormat pins the 200 bodies of both endpoints, on
// the batch and the micro-batched single-row path: exactly the bytes
// json.Encoder writes for the decoded value (trailing newline included),
// sent with a Content-Length rather than chunked.
func TestRowsResponseWireFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		url  string
		rows int
	}{
		{"/v1/models/credit/transform", 128},
		{"/v1/models/credit/transform", 1},
		{"/v1/models/credit/probabilities", 128},
		{"/v1/models/credit/probabilities", 1},
	} {
		rows := make([][]float64, c.rows)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		resp, body := postJSON(t, ts.URL+c.url, rowsRequest{Rows: rows})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", c.url, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s, %d rows: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				c.url, c.rows, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		var v any = &transformResponse{}
		if strings.HasSuffix(c.url, "probabilities") {
			v = &probabilitiesResponse{}
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("%s, %d rows: body differs from encoding/json's\n got %.300s\nwant %.300s", c.url, c.rows, body, want.Bytes())
		}
	}
}

func TestTransformVersionSelection(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	v1, _ := s.Registry().GetVersion("credit", 1)
	resp, body := postJSON(t, ts.URL+"/v1/models/credit/transform?version=1",
		rowsRequest{Rows: [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var tr transformResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Version != 1 {
		t.Fatalf("version = %d, want 1", tr.Version)
	}
	want := wantRow(t, v1.Model, []float64{1, 2, 3})
	for j := range want {
		if tr.Rows[0][j] != want[j] {
			t.Fatal("versioned transform differs from the v1 model")
		}
	}
}

func TestProbabilitiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/models/hiring/probabilities",
		rowsRequest{Rows: [][]float64{{1, 2, 3, 4, 5}, {0, 0, 0, 0, 0}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var pr probabilitiesResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Probabilities) != 2 {
		t.Fatalf("got %d membership rows, want 2", len(pr.Probabilities))
	}
	for _, u := range pr.Probabilities {
		if len(u) != 3 {
			t.Fatalf("membership width %d, want K=3", len(u))
		}
		var sum float64
		for _, p := range u {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("memberships sum to %v", sum)
		}
	}
}

func TestListModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var lr listResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Models) != 3 {
		t.Fatalf("listed %d models, want 3: %+v", len(lr.Models), lr.Models)
	}
}

func TestErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRows: 2})
	cases := []struct {
		name   string
		url    string
		body   string
		status int
		msg    string // substring of the error message, when set
	}{
		{"unknown model", "/v1/models/nope/transform", `{"rows":[[1,2,3]]}`, http.StatusNotFound, ""},
		{"unknown version", "/v1/models/credit/transform?version=9", `{"rows":[[1,2,3]]}`, http.StatusNotFound, ""},
		{"bad version", "/v1/models/credit/transform?version=zero", `{"rows":[[1,2,3]]}`, http.StatusBadRequest, ""},
		{"wrong width", "/v1/models/credit/transform", `{"rows":[[1,2]]}`, http.StatusBadRequest, ""},
		{"wrong width probabilities", "/v1/models/credit/probabilities", `{"rows":[[1]]}`, http.StatusBadRequest, ""},
		{"empty rows", "/v1/models/credit/transform", `{"rows":[]}`, http.StatusBadRequest, ""},
		{"too many rows", "/v1/models/credit/transform", `{"rows":[[1,2,3],[1,2,3],[1,2,3]]}`, http.StatusBadRequest, ""},
		{"malformed json", "/v1/models/credit/transform", `{"rows":`, http.StatusBadRequest, ""},
		{"unknown field", "/v1/models/credit/transform", `{"rowz":[[1,2,3]]}`, http.StatusBadRequest, ""},
		// Finite inputs the kernel cannot represent: the non-finite result
		// must be caught before the status line, not sent as 200 "".
		{"non-finite single row", "/v1/models/credit/transform", `{"rows":[[1e300,2,3]]}`, http.StatusBadRequest, "row 0: result NaN is not finite"},
		{"non-finite batch", "/v1/models/credit/transform", `{"rows":[[1,2,3],[1e300,2,3]]}`, http.StatusBadRequest, "row 1: result NaN is not finite"},
		{"non-finite probabilities", "/v1/models/credit/probabilities", `{"rows":[[1,2,3],[1e300,2,3]]}`, http.StatusBadRequest, "row 1: result NaN is not finite"},
		// Only whitespace may follow the object, on the one-pass parser
		// and on the encoding/json fallback alike.
		{"trailing garbage", "/v1/models/credit/transform", `{"rows":[[1,2,3]]} trailing garbage`, http.StatusBadRequest, "after the JSON object"},
		{"second object", "/v1/models/credit/transform", `{"rows":[[1,2,3]]}{"rows":[[5,6,7]]}`, http.StatusBadRequest, "after the JSON object"},
		{"trailing garbage probabilities", "/v1/models/credit/probabilities", `{"rows":[[1,2,3]]} trailing garbage`, http.StatusBadRequest, "after the JSON object"},
		{"second object probabilities", "/v1/models/credit/probabilities", `{"rows":[[1,2,3]]}{"rows":[[5,6,7]]}`, http.StatusBadRequest, "after the JSON object"},
		{"trailing garbage fallback", "/v1/models/credit/transform", `{"Rows":[[1,2,3]]} x`, http.StatusBadRequest, "after the JSON object"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.url, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, resp.StatusCode, c.status, data)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q is not a JSON error", c.name, data)
		}
		if !strings.Contains(er.Error, c.msg) {
			t.Errorf("%s: error %q does not say %q", c.name, er.Error, c.msg)
		}
	}
}

func TestBodySizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 16})
	resp, _ := postJSON(t, ts.URL+"/v1/models/credit/transform",
		rowsRequest{Rows: [][]float64{{1.123456789, 2.123456789, 3.123456789}, {1, 2, 3}}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	// Empty the registry: readyz must flip to 503 while healthz stays 200.
	s.ready.Store(false)
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no models = %d, want 503", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz should stay 200")
	}
}

func TestMetricsEndpointReportsTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/models/credit/transform", rowsRequest{Rows: [][]float64{{1, 2, 3}, {0, 0, 0}}})
	}
	postJSON(t, ts.URL+"/v1/models/nope/transform", rowsRequest{Rows: [][]float64{{1, 2, 3}}})

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		`ifair_http_requests_total{code="200",path="/v1/models/transform"} 3`,
		`ifair_http_requests_total{code="404",path="/v1/models/transform"} 1`,
		`ifair_http_errors_total{code="404",path="/v1/models/transform"} 1`,
		`ifair_http_request_duration_seconds_count{path="/v1/models/transform"} 4`,
		`ifair_http_request_duration_seconds{path="/v1/models/transform",quantile="0.5"}`,
		`ifair_http_request_duration_seconds{path="/v1/models/transform",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

// TestMetricsRequestCountersExact pins the request counters' exposition
// for a fixed traffic mix, line for line: only paths that answered a
// status get a line for it, however the counters are looked up.
func TestMetricsRequestCountersExact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	getBody(t, ts.URL+"/healthz")
	getBody(t, ts.URL+"/healthz")
	postJSON(t, ts.URL+"/v1/models/credit/transform", rowsRequest{Rows: [][]float64{{1, 2, 3}, {0, 0, 0}}})
	postJSON(t, ts.URL+"/v1/models/nope/transform", rowsRequest{Rows: [][]float64{{1, 2, 3}}})

	_, body := getBody(t, ts.URL+"/metrics")
	var got []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "ifair_http_requests_total") || strings.HasPrefix(line, "ifair_http_errors_total") {
			got = append(got, line)
		}
	}
	want := []string{
		`ifair_http_errors_total{code="404",path="/v1/models/transform"} 1`,
		`ifair_http_requests_total{code="200",path="/healthz"} 2`,
		`ifair_http_requests_total{code="200",path="/v1/models/transform"} 1`,
		`ifair_http_requests_total{code="404",path="/v1/models/transform"} 1`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("request counters:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestConcurrentSingleRowRequestsCoalesce is the acceptance check that
// concurrent single-row HTTP requests are observably micro-batched: the
// batch-size histogram must record at least one batch with > 1 rows.
func TestConcurrentSingleRowRequestsCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 64, MaxWait: 50 * time.Millisecond})
	client := &http.Client{}
	const callers = 12
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"rows":[[%d, 1, -1]]}`, g)
			resp, err := client.Post(ts.URL+"/v1/models/credit/transform", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
			}
		}(g)
	}
	wg.Wait()
	sizes := s.Metrics().Histogram("ifair_batch_size", batchSizeBuckets)
	if sizes.Count() == 0 {
		t.Fatal("no batches recorded")
	}
	if sizes.Max() < 2 {
		t.Fatalf("max observed batch size = %v, want > 1 (requests were not coalesced)", sizes.Max())
	}
}

// TestGracefulShutdownDrains verifies the serving contract cmd/ifair-server
// relies on: http.Server.Shutdown lets an in-flight (micro-batched)
// request finish and the client receives its 200.
func TestGracefulShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 3))
	s, err := New(Config{ModelDir: dir, MaxBatch: 64, MaxWait: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)

	type result struct {
		status int
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		// This request sits in the micro-batch window when Shutdown fires.
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/models/m/transform",
			"application/json", strings.NewReader(`{"rows":[[1,2,3]]}`))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resCh <- result{status: resp.StatusCode}
	}()

	time.Sleep(30 * time.Millisecond) // let the request enter the batcher
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", res.status)
	}
}

func TestNewFailsOnMissingDir(t *testing.T) {
	if _, err := New(Config{ModelDir: "/nonexistent/model/dir"}); err == nil {
		t.Fatal("expected error for unreadable model dir")
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{
		ModelDir:       dir,
		MaxBatch:       1000,             // never size-flush
		MaxWait:        10 * time.Second, // never timer-flush in time
		RequestTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.batcher.Close()
	resp, body := postJSON(t, ts.URL+"/v1/models/m/transform", rowsRequest{Rows: [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504 on server-side deadline expiry", resp.StatusCode, body)
	}
}

// TestDeadlineHeaderPropagates covers client deadline propagation: a
// small X-Request-Timeout-Ms budget beats the server's generous
// RequestTimeout, and the expiry surfaces as 504.
func TestDeadlineHeaderPropagates(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{
		ModelDir:       dir,
		MaxBatch:       1000,             // never size-flush
		MaxWait:        10 * time.Second, // never timer-flush in time
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.batcher.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/m/transform",
		strings.NewReader(`{"rows":[[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TimeoutHeader, "40")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 from the propagated 40ms budget", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request took %v: client budget was not propagated", elapsed)
	}
}

// TestShedReturns429WithRetryAfter wedges the single admission slot and
// verifies the next request is shed with 429 + Retry-After instead of
// queueing (queueing disabled).
func TestShedReturns429WithRetryAfter(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{
		ModelDir:       dir,
		MaxBatch:       1000,
		MaxWait:        10 * time.Second, // park the first request in the batch window
		RequestTimeout: 5 * time.Second,
		MaxInflight:    1,
		MaxQueue:       -1, // no queue: busy ⇒ shed
		RetryAfter:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.batcher.Close()

	// Occupy the only slot: this request sits in the micro-batch window.
	go func() {
		resp, err := http.Post(ts.URL+"/v1/models/m/transform", "application/json",
			strings.NewReader(`{"rows":[[1,2]]}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/models/m/transform", rowsRequest{Rows: [][]float64{{3, 4}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429 shed", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want %q", resp.Header.Get("Retry-After"), "2")
	}
	// Health probes and metrics must bypass admission entirely.
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d while transform slot wedged, want 200", resp.StatusCode)
	}
	resp, mbody := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d while transform slot wedged, want 200", resp.StatusCode)
	}
	for _, want := range []string{
		`ifair_admission_shed_total{path="/v1/models/transform",reason="queue_full"} 1`,
		"ifair_admission_queue_depth 0",
		"ifair_admission_inflight 1",
		"batcher_flush_panics 0",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestQueueWaitCapSheds503 fills the slot and bounds the queue wait: the
// queued request must come back 503 + Retry-After once the cap expires.
func TestQueueWaitCapSheds503(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{
		ModelDir:       dir,
		MaxBatch:       1000,
		MaxWait:        10 * time.Second,
		RequestTimeout: 5 * time.Second,
		MaxInflight:    1,
		MaxQueue:       4,
		MaxQueueWait:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.batcher.Close()

	go func() {
		resp, err := http.Post(ts.URL+"/v1/models/m/transform", "application/json",
			strings.NewReader(`{"rows":[[1,2]]}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/models/m/transform", rowsRequest{Rows: [][]float64{{3, 4}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503 queue-time shed", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed response missing Retry-After")
	}
}

// TestMetricsReportReloadFailures wires the registry's failure counter
// through to /metrics: after a truncated hot-reload, the counter must be
// visible to scrapers while the model keeps serving.
func TestMetricsReportReloadFailures(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Truncate one model file and reload, as the Watch loop would.
	e, ok := s.Registry().Get("hiring")
	if !ok {
		t.Fatal("hiring model missing")
	}
	data, err := os.ReadFile(e.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(e.Path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Registry().Reload(); err == nil {
		t.Fatal("reload of truncated model reported no error")
	}
	if _, ok := s.Registry().Get("hiring"); !ok {
		t.Fatal("hiring model dropped despite last-good retention")
	}

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "registry_reload_failures 1") {
		t.Fatalf("/metrics missing registry_reload_failures 1:\n%s", body)
	}
}
