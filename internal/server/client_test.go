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

// post marshals once, then retries the round trip under the client's
// backoff policy until success, a terminal status, retry exhaustion, or
// ctx expiry — whichever is first.
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

func TestClientRetriesShedsThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(errorResponse{Error: "overloaded"}) //nolint:errcheck
			return
		}
		json.NewEncoder(w).Encode(transformResponse{ //nolint:errcheck
			Model: "m", Version: 1, Rows: [][]float64{{42}},
		})
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxRetries: 3}
	got, err := c.Transform(context.Background(), "m", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("row = %v, want [42]", got)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 sheds + success)", n)
	}
}

func TestClientDoesNotRetryTerminalStatus(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(errorResponse{Error: "bad row"}) //nolint:errcheck
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxRetries: 5}
	_, err := c.Transform(context.Background(), "m", []float64{1})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls for a terminal 400, want 1", n)
	}
}

func TestClientHonoursRetryAfterFloor(t *testing.T) {
	var calls atomic.Int64
	var firstRetryGap atomic.Int64
	var lastCall atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := lastCall.Swap(now); prev != 0 && firstRetryGap.Load() == 0 {
			firstRetryGap.Store(now - prev)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(transformResponse{Rows: [][]float64{{1}}}) //nolint:errcheck
	}))
	defer ts.Close()

	// Jittered backoff alone would be ≤ 50ms (the exponential ceiling is
	// clientBaseDelay on the first retry); the server's 1s hint must
	// floor it. clientMaxDelay sits above the hint — clamping is covered
	// by TestBackoffClampsHintToMaxDelay.
	c := &Client{BaseURL: ts.URL, MaxRetries: 1}
	if _, err := c.Transform(context.Background(), "m", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if gap := time.Duration(firstRetryGap.Load()); gap < 900*time.Millisecond {
		t.Fatalf("retry after %v, want ≥ ~1s from Retry-After hint", gap)
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

func TestClientStopsRetryingOnContextExpiry(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxRetries: 100}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Transform(ctx, "m", []float64{1})
	if err == nil {
		t.Fatal("want an error after ctx expiry")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("client kept retrying %v past its context", elapsed)
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

func TestBackoffClampsHintToMaxDelay(t *testing.T) {
	c := &Client{}
	// A Retry-After hint far beyond the cap must not stall the client.
	if d := c.backoff(1, time.Hour); d != clientMaxDelay {
		t.Fatalf("backoff with huge hint = %v, want clamped to %v", d, clientMaxDelay)
	}
	// A modest hint still floors the jittered delay, which stays under
	// the first retry's ceiling.
	if d := c.backoff(1, 20*time.Millisecond); d < 20*time.Millisecond || d > clientBaseDelay {
		t.Fatalf("backoff with 20ms hint = %v, want in [20ms, %v]", d, clientBaseDelay)
	}
}

func TestClientHonoursHTTPDateRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// HTTP-dates have 1-second resolution; aim 2s out so the
			// truncated value still lands ≥ 1s in the future.
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(transformResponse{Rows: [][]float64{{1}}}) //nolint:errcheck
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, MaxRetries: 1}
	start := time.Now()
	if _, err := c.Transform(context.Background(), "m", []float64{1}); err != nil {
		t.Fatal(err)
	}
	// Jitter alone would be ≤ 50ms; the parsed HTTP-date must floor the
	// retry delay near 1–2s (second-resolution truncation tolerance).
	if gap := time.Since(start); gap < 900*time.Millisecond {
		t.Fatalf("retry after %v, want ≥ ~1s from HTTP-date Retry-After", gap)
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
