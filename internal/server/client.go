package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxResponseBytes bounds how much of a response body the client reads —
// large enough for batched transforms and synced model files, small
// enough that a runaway server cannot exhaust client memory.
const maxResponseBytes = 64 << 20

// StatusError is a non-2xx response the client gave up on (or was told
// not to retry). RetryAfter carries the server's backoff hint, zero if
// none was sent.
type StatusError struct {
	Status     int
	Body       string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Body)
}

// rowsRequest, transformResponse and probabilitiesResponse are the
// client's view of the transform and probabilities bodies. The client
// stays on encoding/json, so its tests check the server's hand-written
// codec against an independent implementation.
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

// ClientStats counts what a Client did, for load reports.
type ClientStats struct {
	Requests int64 // HTTP round trips attempted
	Retries  int64 // round trips that were retries
	Shed     int64 // 429/503 responses seen
}

// Client is a retrying HTTP client for the serving API, built to be a
// well-behaved citizen of the overload-protection contract: it
// propagates its context deadline via the X-Request-Timeout-Ms header,
// backs off exponentially with full jitter on retryable failures, and
// honours the server's Retry-After hint as a floor on the next delay.
// Retryable: transport errors, 429, 503. Everything else returns
// immediately.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient is the transport; nil selects http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds retries after the first attempt (default 3,
	// negative disables retrying).
	MaxRetries int
	// BaseDelay seeds the exponential backoff (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 2s).
	MaxDelay time.Duration
	// Seed makes the jitter deterministic for tests; 0 uses a fixed
	// default (jitter quality does not matter, reproducibility does).
	Seed int64

	mu    sync.Mutex
	rng   *rand.Rand
	stats ClientStats
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 3
	}
	return c.MaxRetries
}

func (c *Client) baseDelay() time.Duration {
	if c.BaseDelay <= 0 {
		return 50 * time.Millisecond
	}
	return c.BaseDelay
}

func (c *Client) maxDelay() time.Duration {
	if c.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return c.MaxDelay
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// backoff returns the sleep before retry attempt (1-based): full jitter
// over an exponentially growing cap, floored by the server's hint. The
// hint itself is clamped to MaxDelay so a misbehaving (or misparsed)
// Retry-After can never stall the client beyond its own backoff cap.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	ceil := c.baseDelay() << (attempt - 1)
	if ceil > c.maxDelay() || ceil <= 0 {
		ceil = c.maxDelay()
	}
	c.mu.Lock()
	if c.rng == nil {
		seed := c.Seed
		if seed == 0 {
			seed = 1
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.mu.Unlock()
	if d < hint {
		d = hint
	}
	if max := c.maxDelay(); d > max {
		d = max
	}
	return d
}

// retryAfter parses a Retry-After header in either RFC 9110 form:
// delay-seconds ("2") or an HTTP-date ("Mon, 02 Jan 2006 15:04:05 GMT",
// converted to a delay from now). Garbage and past dates yield 0.
func retryAfter(resp *http.Response) time.Duration {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
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

// PostRaw posts a pre-marshalled JSON body to path under the client's
// retry policy and returns the raw response body. Non-200 responses
// return a *StatusError carrying the decoded error message and the
// server's Retry-After hint — the building block for proxies that relay
// bodies without re-encoding them.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, path, body, nil)
}

// GetRaw fetches path under the client's retry policy and returns the
// raw response body.
func (c *Client) GetRaw(ctx context.Context, path string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, path, nil, nil)
}

// do retries the round trip under the client's backoff policy until
// success, a terminal status, retry exhaustion, or ctx expiry —
// whichever is first.
func (c *Client) do(ctx context.Context, method, path string, body []byte, extra http.Header) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
		}
		data, err := c.roundTrip(ctx, method, path, body, extra)
		if err == nil {
			return data, nil
		}
		lastErr = err
		var se *StatusError
		retryable := !errors.As(lastErr, &se) ||
			se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable
		if !retryable || attempt >= c.maxRetries() || ctx.Err() != nil {
			return nil, lastErr
		}
		hint := time.Duration(0)
		if se != nil {
			hint = se.RetryAfter
		}
		select {
		case <-time.After(c.backoff(attempt+1, hint)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// roundTrip performs one attempt, propagating the remaining ctx budget
// in the deadline header so the server sheds work this caller would
// abandon anyway.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, extra http.Header) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(TimeoutHeader, strconv.FormatInt(ms, 10))
		}
	}
	c.mu.Lock()
	c.stats.Requests++
	c.mu.Unlock()
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			c.mu.Lock()
			c.stats.Shed++
			c.mu.Unlock()
		}
		var apiErr errorResponse
		msg := string(data)
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return nil, &StatusError{Status: resp.StatusCode, Body: msg, RetryAfter: retryAfter(resp)}
	}
	return data, nil
}
