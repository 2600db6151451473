package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxResponseBytes bounds how much of a response body the client reads —
// large enough for batched transforms and synced model files, small
// enough that a runaway server cannot exhaust client memory.
const maxResponseBytes = 64 << 20

// StatusError is a non-200 response. RetryAfter carries the server's
// backoff hint, zero if none was sent.
type StatusError struct {
	Status     int
	Body       string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Body)
}

// Client is an HTTP client for the serving API that makes exactly one
// attempt per call. It propagates its context deadline via the
// X-Request-Timeout-Ms header, caps response bodies at maxResponseBytes,
// and reports any non-200 as a *StatusError carrying the server's
// Retry-After hint. Retrying belongs to its callers: the router
// reroutes to another replica and cools the shedding one down for the
// hinted time, and the replica Syncer repeats its pull on the next tick.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient is the transport; nil selects http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
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

// PostRaw posts a pre-marshalled JSON body to path and returns the raw
// response body. Non-200 responses return a *StatusError carrying the
// decoded error message and the server's Retry-After hint — the
// building block for proxies that relay bodies without re-encoding them.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, path, body, nil)
}

// GetRaw fetches path and returns the raw response body.
func (c *Client) GetRaw(ctx context.Context, path string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, path, nil, nil)
}

// do performs one round trip, propagating the remaining ctx budget in
// the deadline header so the server sheds work this caller would
// abandon anyway.
func (c *Client) do(ctx context.Context, method, path string, body []byte, extra http.Header) ([]byte, error) {
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
