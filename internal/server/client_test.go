package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// rowsRequest, transformResponse and probabilitiesResponse are the
// transform and probabilities bodies as the single-row Client methods
// below see them. They stay on encoding/json, so the tests check the
// server's hand-written codec against an independent implementation.
type rowsRequest struct {
	Rows [][]float64 `json:"rows"`
}

type transformResponse struct {
	Model   string      `json:"model"`
	Version int         `json:"version"`
	Rows    [][]float64 `json:"rows"`
}

type probabilitiesResponse struct {
	Model         string      `json:"model"`
	Version       int         `json:"version"`
	Probabilities [][]float64 `json:"probabilities"`
}

// Transform sends one row through POST /v1/models/{name}/transform and
// returns the transformed row.
func (c *Client) Transform(ctx context.Context, model string, row []float64) ([]float64, error) {
	var out transformResponse
	err := c.post(ctx, "/v1/models/"+model+"/transform", rowsRequest{Rows: [][]float64{row}}, &out)
	if err != nil {
		return nil, err
	}
	if len(out.Rows) != 1 {
		return nil, fmt.Errorf("server returned %d rows for 1", len(out.Rows))
	}
	return out.Rows[0], nil
}

// TransformKeyed sends one row through the transform endpoint with an
// explicit canary routing key (the X-Canary-Key header) and returns the
// transformed row plus the model version that served it. Under a canary
// rollout the key — not the connection — decides the serving arm, so a
// caller that reuses its key sees a consistent model version across
// requests, retries and process restarts.
func (c *Client) TransformKeyed(ctx context.Context, model, key string, row []float64) ([]float64, int, error) {
	body, err := json.Marshal(rowsRequest{Rows: [][]float64{row}})
	if err != nil {
		return nil, 0, err
	}
	hdr := http.Header{CanaryKeyHeader: []string{key}}
	data, err := c.do(ctx, http.MethodPost, "/v1/models/"+model+"/transform", body, hdr)
	if err != nil {
		return nil, 0, err
	}
	var out transformResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, 0, err
	}
	if len(out.Rows) != 1 {
		return nil, 0, fmt.Errorf("server returned %d rows for 1", len(out.Rows))
	}
	return out.Rows[0], out.Version, nil
}

// Probabilities sends one row through POST
// /v1/models/{name}/probabilities and returns its prototype-membership
// distribution.
func (c *Client) Probabilities(ctx context.Context, model string, row []float64) ([]float64, error) {
	var out probabilitiesResponse
	err := c.post(ctx, "/v1/models/"+model+"/probabilities", rowsRequest{Rows: [][]float64{row}}, &out)
	if err != nil {
		return nil, err
	}
	if len(out.Probabilities) != 1 {
		return nil, fmt.Errorf("server returned %d rows for 1", len(out.Probabilities))
	}
	return out.Probabilities[0], nil
}

// post marshals in, makes one round trip and decodes the response into
// out.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	data, err := c.do(ctx, http.MethodPost, path, body, nil)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func TestClientTransformRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	defer s.batcher.Close()
	c := &Client{BaseURL: ts.URL}
	row := []float64{1, 2, 3}
	got, err := c.Transform(context.Background(), "credit", row)
	if err != nil {
		t.Fatal(err)
	}
	want := wantRow(t, mustEntry(t, s, "credit").Model, row)
	if len(got) != len(want) {
		t.Fatalf("row length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	probs, err := c.Probabilities(context.Background(), "credit", row)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v, want 1", sum)
	}
}

func mustEntry(t *testing.T, s *Server, name string) *Entry {
	t.Helper()
	e, ok := s.Registry().Get(name)
	if !ok {
		t.Fatalf("model %s not in registry", name)
	}
	return e
}

// TestClientDoesNotRetryTerminalStatus checks that every call makes
// exactly one request, whatever the status: retrying belongs to the
// router's reroute and the syncer's next tick.
func TestClientDoesNotRetryTerminalStatus(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(errorResponse{Error: "no"}) //nolint:errcheck
		}))
		c := &Client{BaseURL: ts.URL}
		_, err := c.Transform(context.Background(), "m", []float64{1})
		var se *StatusError
		if !errors.As(err, &se) || se.Status != status || se.Body != "no" {
			t.Fatalf("err = %v, want StatusError %d", err, status)
		}
		if _, err := c.GetRaw(context.Background(), "/v1/models"); !errors.As(err, &se) || se.Status != status {
			t.Fatalf("GetRaw err = %v, want StatusError %d", err, status)
		}
		ts.Close()
		if n := calls.Load(); n != 2 {
			t.Fatalf("status %d: server saw %d calls for 2 client calls, want 2", status, n)
		}
	}
}

func TestClientPropagatesDeadlineHeader(t *testing.T) {
	var header atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header.Store(r.Header.Get(TimeoutHeader))
		json.NewEncoder(w).Encode(transformResponse{Rows: [][]float64{{1}}}) //nolint:errcheck
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 750*time.Millisecond)
	defer cancel()
	if _, err := c.Transform(ctx, "m", []float64{1}); err != nil {
		t.Fatal(err)
	}
	h, _ := header.Load().(string)
	if h == "" {
		t.Fatal("deadline header not propagated")
	}
	ms, err := time.ParseDuration(h + "ms")
	if err != nil || ms <= 0 || ms > 750*time.Millisecond {
		t.Fatalf("deadline header = %q, want 0 < ms ≤ 750", h)
	}
}

func TestRetryAfterParsesBothForms(t *testing.T) {
	mk := func(value string) *http.Response {
		h := http.Header{}
		if value != "" {
			h.Set("Retry-After", value)
		}
		return &http.Response{Header: h}
	}
	if d := retryAfter(mk("")); d != 0 {
		t.Fatalf("absent header → %v, want 0", d)
	}
	if d := retryAfter(mk("2")); d != 2*time.Second {
		t.Fatalf("integer form → %v, want 2s", d)
	}
	if d := retryAfter(mk("-3")); d != 0 {
		t.Fatalf("negative seconds → %v, want 0", d)
	}
	// HTTP-date form: ~1.5s in the future must parse to (0, 2s].
	future := time.Now().Add(1500 * time.Millisecond).UTC().Format(http.TimeFormat)
	if d := retryAfter(mk(future)); d <= 0 || d > 2*time.Second {
		t.Fatalf("HTTP-date form → %v, want ~1.5s", d)
	}
	// A date in the past means "now": no extra delay.
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := retryAfter(mk(past)); d != 0 {
		t.Fatalf("past HTTP-date → %v, want 0", d)
	}
	for _, garbage := range []string{"soon", "12x", "Mon, 99 Zebruary", "1.5"} {
		if d := retryAfter(mk(garbage)); d != 0 {
			t.Fatalf("garbage %q → %v, want 0", garbage, d)
		}
	}
}

func TestClientHonoursHTTPDateRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// HTTP-dates have 1-second resolution; aim 2s out so the
		// truncated value still lands ≥ 1s in the future.
		w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	_, err := c.Transform(context.Background(), "m", []float64{1})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want StatusError 503", err)
	}
	// Second-resolution truncation puts the hint between ~1s and 2s.
	if se.RetryAfter < 900*time.Millisecond || se.RetryAfter > 2*time.Second {
		t.Fatalf("RetryAfter = %v, want ~1–2s from the HTTP-date header", se.RetryAfter)
	}
}

func TestClientRawRoundTrips(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	defer s.batcher.Close()
	c := &Client{BaseURL: ts.URL}

	body, err := json.Marshal(rowsRequest{Rows: [][]float64{{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.PostRaw(context.Background(), "/v1/models/credit/transform", body)
	if err != nil {
		t.Fatal(err)
	}
	var out transformResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Model != "credit" || len(out.Rows) != 1 {
		t.Fatalf("unexpected raw transform response: %+v", out)
	}

	listing, err := c.GetRaw(context.Background(), "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models listResponse
	if err := json.Unmarshal(listing, &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) == 0 {
		t.Fatal("GetRaw listing returned no models")
	}

	// Non-200s surface as StatusError with the decoded message.
	_, err = c.PostRaw(context.Background(), "/v1/models/nope/transform", body)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("PostRaw to missing model = %v, want 404 StatusError", err)
	}
}
