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

// Backoff policy of Client: the first retry's jitter ceiling, the cap on
// any single sleep, and the seed of the jitter source (jitter quality
// does not matter, reproducibility does).
const (
	clientBaseDelay = 50 * time.Millisecond
	clientMaxDelay  = 2 * time.Second
	clientSeed      = 1
)

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

	mu  sync.Mutex
	rng *rand.Rand
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

// backoff returns the sleep before retry attempt (1-based): full jitter
// over an exponentially growing cap, floored by the server's hint. The
// hint itself is clamped to clientMaxDelay so a misbehaving (or
// misparsed) Retry-After can never stall the client beyond its own
// backoff cap.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	ceil := clientBaseDelay << (attempt - 1)
	if ceil > clientMaxDelay || ceil <= 0 {
		ceil = clientMaxDelay
	}
	c.mu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(clientSeed))
	}
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.mu.Unlock()
	return min(max(d, hint), clientMaxDelay)
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
		var apiErr errorResponse
		msg := string(data)
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return nil, &StatusError{Status: resp.StatusCode, Body: msg, RetryAfter: retryAfter(resp)}
	}
	return data, nil
}
