// Package server is the model-serving subsystem: it loads fitted iFair
// models from a directory into a hot-reloadable registry and serves
// transform/probability requests over HTTP, coalescing concurrent
// single-record requests into micro-batches. It realises the paper's
// "train once, use the learned representation for arbitrary downstream
// applications" deployment story (Sec. IV) as a long-lived service.
package server

import (
	"fmt"
	"io"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram, safe for concurrent
// use. Buckets are upper bounds; observations above the last bound land
// in an implicit +Inf bucket.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []int64 // len(bounds)+1, last is +Inf
	sum    float64
	total  int64
}

// newHistogram builds a histogram with the given strictly increasing
// bucket upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.mu.Lock()
	h.counts[idx]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket that contains it, the same estimator Prometheus'
// histogram_quantile uses. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total)
	var cum int64
	for i, c := range h.counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) { // +Inf bucket
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := 1.0
		if c > 0 {
			frac = (rank - float64(cum-c)) / float64(c)
		}
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshot returns a consistent copy of the histogram state.
func (h *Histogram) snapshot() (counts []int64, sum float64, total int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...), h.sum, h.total
}

// Default bucket layouts: request latency in seconds (100µs … 10s) and
// micro-batch sizes (powers of two).
var (
	latencyBuckets   = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	exportQuantiles  = []float64{0.5, 0.9, 0.99}
)

// Metrics is a registry of named counters and histograms that renders
// itself in the Prometheus plain-text exposition format. Metric identity
// is (name, sorted label pairs); getters create on first use.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	bounds   map[string][]float64      // histogram name → bucket layout
	gauges   map[string]func() float64 // sampled at scrape time
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		bounds:   make(map[string][]float64),
		gauges:   make(map[string]func() float64),
	}
}

// metricKey serialises a metric identity; labels are "key=value" pairs.
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	sorted := append([]string(nil), labels...)
	sort.Strings(sorted)
	return name + "{" + strings.Join(sorted, ",") + "}"
}

// renderLabels formats sorted "key=value" pairs as {key="value",...}.
func renderLabels(labels []string, extra ...string) string {
	all := append(append([]string(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Strings(all)
	parts := make([]string, len(all))
	for i, l := range all {
		k, v, _ := strings.Cut(l, "=")
		parts[i] = fmt.Sprintf("%s=%q", k, v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Counter returns (creating if needed) the counter with this identity.
func (m *Metrics) Counter(name string, labels ...string) *Counter {
	key := metricKey(name, labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[key]
	if !ok {
		c = &Counter{}
		m.counters[key] = c
	}
	return c
}

// Histogram returns (creating if needed) the histogram with this
// identity. The bucket layout is fixed by the first call per name.
func (m *Metrics) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	key := metricKey(name, labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[key]
	if !ok {
		if b, fixed := m.bounds[name]; fixed {
			bounds = b
		} else {
			m.bounds[name] = append([]float64(nil), bounds...)
		}
		h = newHistogram(bounds)
		m.hists[key] = h
	}
	return h
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// scrape time — for instantaneous state like queue depth. Registering
// the same identity again replaces the function.
func (m *Metrics) GaugeFunc(name string, fn func() float64, labels ...string) {
	key := metricKey(name, labels)
	m.mu.Lock()
	m.gauges[key] = fn
	m.mu.Unlock()
}

// RegisterProcessMetrics adds process-level health gauges sampled at
// scrape time: goroutine count, heap bytes, and the p99 GC pause
// estimated from the runtime's cumulative pause histogram. Replicas and
// the router both export them, so fleet dashboards (and the router's
// probes) can tell a busy backend from a sick one. The gauges read
// runtime/metrics, which, unlike runtime.ReadMemStats, does not stop the
// world.
func RegisterProcessMetrics(m *Metrics) {
	m.GaugeFunc("go_goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	m.GaugeFunc("go_heap_alloc_bytes", func() float64 {
		return float64(readRuntimeMetric("/memory/classes/heap/objects:bytes").Uint64())
	})
	m.GaugeFunc("go_gc_pause_p99_seconds", func() float64 {
		return histogramQuantile(readRuntimeMetric("/sched/pauses/total/gc:seconds").Float64Histogram(), 0.99)
	})
}

// readRuntimeMetric samples one runtime/metrics value. Both names above
// exist in every Go release go.mod admits (1.22 and later).
func readRuntimeMetric(name string) rtmetrics.Value {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	return s[0].Value
}

// histogramQuantile estimates quantile q of a runtime histogram as the
// upper edge of the bucket holding the q-th observation (its lower edge
// when the bucket is unbounded above), or 0 when it holds none.
func histogramQuantile(h *rtmetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return math.Max(h.Buckets[i], 0)
		}
	}
	return 0
}

// WriteTo renders every metric in the Prometheus plain-text format, with
// estimated quantile lines added for each histogram (p50/p90/p99), and
// returns the number of bytes written.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
	counterKeys := make([]string, 0, len(m.counters))
	for k := range m.counters {
		counterKeys = append(counterKeys, k)
	}
	histKeys := make([]string, 0, len(m.hists))
	for k := range m.hists {
		histKeys = append(histKeys, k)
	}
	counters := make(map[string]*Counter, len(m.counters))
	for k, v := range m.counters {
		counters[k] = v
	}
	hists := make(map[string]*Histogram, len(m.hists))
	for k, v := range m.hists {
		hists[k] = v
	}
	gaugeKeys := make([]string, 0, len(m.gauges))
	for k := range m.gauges {
		gaugeKeys = append(gaugeKeys, k)
	}
	gauges := make(map[string]func() float64, len(m.gauges))
	for k, v := range m.gauges {
		gauges[k] = v
	}
	m.mu.Unlock()

	sort.Strings(counterKeys)
	sort.Strings(histKeys)
	sort.Strings(gaugeKeys)

	var b strings.Builder
	for _, key := range counterKeys {
		name, labels := splitKey(key)
		fmt.Fprintf(&b, "%s%s %d\n", name, renderLabels(labels), counters[key].Value())
	}
	// Gauge functions run outside the registry lock: they may take other
	// locks (limiter, batcher) of their own.
	for _, key := range gaugeKeys {
		name, labels := splitKey(key)
		fmt.Fprintf(&b, "%s%s %g\n", name, renderLabels(labels), gauges[key]())
	}
	for _, key := range histKeys {
		name, labels := splitKey(key)
		h := hists[key]
		counts, sum, total := h.snapshot()
		var cum int64
		for i, bound := range h.bounds {
			cum += counts[i]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", name, renderLabels(labels, fmt.Sprintf("le=%g", bound)), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", name, renderLabels(labels, "le=+Inf"), total)
		fmt.Fprintf(&b, "%s_sum%s %g\n", name, renderLabels(labels), sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", name, renderLabels(labels), total)
		for _, q := range exportQuantiles {
			fmt.Fprintf(&b, "%s%s %g\n", name, renderLabels(labels, fmt.Sprintf("quantile=%g", q)), h.Quantile(q))
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// splitKey reverses metricKey.
func splitKey(key string) (name string, labels []string) {
	name, rest, ok := strings.Cut(key, "{")
	if !ok {
		return key, nil
	}
	rest = strings.TrimSuffix(rest, "}")
	if rest == "" {
		return name, nil
	}
	return name, strings.Split(rest, ",")
}
