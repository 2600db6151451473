package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/admission"
)

// flushRecorder counts Flush calls on the writer under a statusRecorder.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

func TestStatusRecorderFlushPassthrough(t *testing.T) {
	under := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	rec := &statusRecorder{ResponseWriter: under}

	f, ok := interface{}(rec).(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder does not implement http.Flusher")
	}
	f.Flush()
	f.Flush()
	if under.flushes != 2 {
		t.Fatalf("flushes = %d, want 2 passed through", under.flushes)
	}

	// A non-Flusher underlying writer must not panic.
	plain := &statusRecorder{ResponseWriter: httptest.NewRecorder()}
	plain.Flush()
}

func TestEffectiveTimeoutClamping(t *testing.T) {
	const serverBound = 500 * time.Millisecond
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", serverBound},               // absent → server bound
		{"abc", serverBound},            // malformed → server bound
		{"-5", serverBound},             // non-positive → server bound
		{"0", serverBound},              // zero → server bound
		{"100", 100 * time.Millisecond}, // tighter client budget wins
		{"900000", serverBound},         // generous client clamped down
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if c.header != "" {
			r.Header.Set(TimeoutHeader, c.header)
		}
		if got := EffectiveTimeout(r, serverBound); got != c.want {
			t.Errorf("header %q: timeout = %v, want %v", c.header, got, c.want)
		}
	}
}

func TestShedReasonLabels(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{admission.ErrQueueFull, "queue_full"},
		{admission.ErrQueueTimeout, "queue_timeout"},
		{admission.ErrDeadline, "deadline"},
		{context.Canceled, "context"},
	}
	for _, c := range cases {
		if got := shedReason(c.err); got != c.want {
			t.Errorf("shedReason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so an allocation
// count over it is the handler's own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestInstrumentAllocs bounds what the instrument wrapper costs per
// request on a path that has already answered 200: the 200 counter is
// resolved once, so only the request-scoped timeout, the status recorder
// and the handler itself allocate.
func TestInstrumentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	s, _ := newTestServer(t, Config{})
	h := s.instrument("/healthz", false, s.handleHealthz)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := &discardWriter{h: http.Header{}}
	serve := func() { h.ServeHTTP(w, req) }
	serve()
	if n := testing.AllocsPerRun(200, serve); n > 8 {
		t.Fatalf("instrumented /healthz allocates %v per request, want ≤ 8", n)
	}
}
