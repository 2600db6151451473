package server

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Count, Sum and Max read a Histogram for the tests; the server exposes it
// only through the text format.

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the upper bound of the highest non-empty bucket (an upper
// estimate of the maximum observation), or 0 with no observations.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i] == 0 {
			continue
		}
		if i < len(h.bounds) {
			return h.bounds[i]
		}
		// +Inf bucket: the best finite statement is the mean of what
		// landed there is unknown; report the last finite bound.
		if len(h.bounds) > 0 {
			return h.bounds[len(h.bounds)-1]
		}
		return 0
	}
	return 0
}

func TestCounter(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("requests", "path=/x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if m.Counter("requests", "path=/x") != c {
		t.Fatal("same identity returned a different counter")
	}
	if m.Counter("requests", "path=/y") == c {
		t.Fatal("different labels returned the same counter")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for v := 1; v <= 8; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 36 {
		t.Fatalf("sum = %v, want 36", h.Sum())
	}
	// Half the mass sits at or below 2 (observations 1 and 2 fill the
	// first two buckets; interpolation keeps the estimate in (1, 4]).
	if q := h.Quantile(0.5); q < 1 || q > 4 {
		t.Fatalf("p50 = %v, want within (1, 4]", q)
	}
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("p100 = %v, want 8", q)
	}
	if h.Max() != 8 {
		t.Fatalf("max = %v, want 8", h.Max())
	}
	empty := newHistogram([]float64{1})
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(100)
	if h.Count() != 1 {
		t.Fatal("overflow observation not counted")
	}
	if q := h.Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile = %v, want last finite bound 2", q)
	}
}

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.Counter("ifair_http_requests_total", "path=/v1/models", "code=200").Add(3)
	h := m.Histogram("ifair_http_request_duration_seconds", []float64{0.01, 0.1}, "path=/v1/models")
	h.Observe(0.005)
	h.Observe(0.05)

	var b strings.Builder
	if _, err := m.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ifair_http_requests_total{code="200",path="/v1/models"} 3`,
		`ifair_http_request_duration_seconds_bucket{le="0.01",path="/v1/models"} 1`,
		`ifair_http_request_duration_seconds_bucket{le="+Inf",path="/v1/models"} 2`,
		`ifair_http_request_duration_seconds_count{path="/v1/models"} 2`,
		`quantile="0.5"`,
		`quantile="0.99"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsConcurrentAccess(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Counter("c", "path=/x").Inc()
				m.Histogram("h", []float64{1, 2}, "path=/x").Observe(float64(i % 3))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("c", "path=/x").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := m.Histogram("h", nil, "path=/x").Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(1) // exactly on a bound counts toward that bound (le semantics)
	counts, sum, total := h.snapshot()
	if counts[0] != 1 || total != 1 || sum != 1 {
		t.Fatalf("counts=%v sum=%v total=%d, want first bucket hit", counts, sum, total)
	}
	if math.Abs(h.Quantile(1)-1) > 1e-12 {
		t.Fatalf("quantile = %v, want 1", h.Quantile(1))
	}
}

func TestGaugeFuncExposition(t *testing.T) {
	m := NewMetrics()
	depth := 3.0
	m.GaugeFunc("ifair_queue_depth", func() float64 { return depth })
	m.GaugeFunc("ifair_inflight", func() float64 { return 7 }, "path=/x")

	var b strings.Builder
	if _, err := m.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "ifair_queue_depth 3\n") {
		t.Fatalf("missing gauge line:\n%s", out)
	}
	if !strings.Contains(out, `ifair_inflight{path="/x"} 7`+"\n") {
		t.Fatalf("missing labelled gauge line:\n%s", out)
	}

	// Gauges are sampled at scrape time, not registration time.
	depth = 9
	b.Reset()
	m.WriteTo(&b) //nolint:errcheck
	if !strings.Contains(b.String(), "ifair_queue_depth 9\n") {
		t.Fatalf("gauge not re-sampled at scrape:\n%s", b.String())
	}

	// Re-registering the same identity replaces the function.
	m.GaugeFunc("ifair_queue_depth", func() float64 { return -1 })
	b.Reset()
	m.WriteTo(&b) //nolint:errcheck
	if !strings.Contains(b.String(), "ifair_queue_depth -1\n") {
		t.Fatalf("gauge function not replaced:\n%s", b.String())
	}
}

func TestProcessMetricsExposition(t *testing.T) {
	m := NewMetrics()
	RegisterProcessMetrics(m)
	runtime.GC() // at least one pause in the runtime's histogram
	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_pause_p99_seconds"} {
		if !strings.Contains(out, name+" ") {
			t.Fatalf("exposition missing %s:\n%s", name, out)
		}
	}
	// The gauges sample live process state at scrape time: a running test
	// binary always has ≥ 1 goroutine and a non-zero heap, and after a
	// collection the pause estimate is a finite, non-negative duration.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "go_") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("%s value %q: %v", fields[0], fields[1], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("%s = %v, want finite and ≥ 0", fields[0], v)
		}
		if fields[0] != "go_gc_pause_p99_seconds" && v == 0 {
			t.Fatalf("%s = 0, want > 0", fields[0])
		}
	}
}
