package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/mat"
)

// Config sizes the serving subsystem.
type Config struct {
	// ModelDir is the directory of model JSON files the registry serves
	// (`<name>.json` or `<name>@v<version>.json`).
	ModelDir string
	// MaxBatch is the micro-batcher's flush threshold (default 32).
	MaxBatch int
	// MaxWait is how long a single-row request may wait for batch
	// partners (default 2ms; 0 disables coalescing).
	MaxWait time.Duration
	// Workers is the worker-pool width for batched transforms (default
	// GOMAXPROCS).
	Workers int
	// RequestTimeout bounds each request's handling time (default 10s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request body size (default 8 MiB).
	MaxBodyBytes int64
	// MaxRows caps the number of rows per batch request (default 10000).
	MaxRows int

	// MaxInflight bounds concurrently executing transform/probabilities
	// requests (default 8×GOMAXPROCS). Health probes and /metrics are
	// never admission-controlled.
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 2×MaxInflight; negative disables queueing — busy ⇒ immediate 429).
	MaxQueue int
	// MaxQueueWait caps how long a request may wait in the admission
	// queue before being shed with 503 (default RequestTimeout/2;
	// negative means waiters are bounded only by their own deadline).
	MaxQueueWait time.Duration
	// RetryAfter is the hint sent in the Retry-After header of 429/503
	// shed responses (default 1s).
	RetryAfter time.Duration
	// FlushWorkers bounds the micro-batcher's flush goroutines (default
	// Workers).
	FlushWorkers int
	// MaxPending caps queued + in-flight micro-batched rows per model;
	// beyond it single-row requests are shed with 429 (default
	// 16×MaxBatch; negative means unlimited).
	MaxPending int

	// Rollout enables closed-loop canary serving: transform traffic is
	// split between a pinned stable version and a canary by a
	// deterministic hash of the request key, and the guard loop
	// (RolloutManager.Run) auto-promotes or rolls back. nil disables
	// rollout (every request serves the registry's newest version, the
	// historical behaviour).
	Rollout *RolloutConfig
}

func (c *Config) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 10000
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8 * runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 2 * c.MaxInflight
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	switch {
	case c.MaxQueueWait == 0:
		c.MaxQueueWait = c.RequestTimeout / 2
	case c.MaxQueueWait < 0:
		c.MaxQueueWait = 0
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.FlushWorkers <= 0 {
		c.FlushWorkers = c.Workers
	}
	switch {
	case c.MaxPending == 0:
		c.MaxPending = 16 * c.MaxBatch
	case c.MaxPending < 0:
		c.MaxPending = 0
	}
}

// Server serves fitted iFair models over HTTP: batched transforms,
// cluster-membership probabilities, a registry listing, health probes
// and metrics.
type Server struct {
	cfg      Config
	registry *Registry
	batcher  *Batcher
	limiter  *admission.Limiter
	metrics  *Metrics
	rollouts *RolloutManager // nil unless cfg.Rollout is set
	syncCRCs crcCache
	ready    atomic.Bool
}

// New builds a Server, performing the initial registry load. A load
// error for individual files is returned but the server still serves
// whatever loaded; only an unreadable directory is fatal.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(cfg.ModelDir),
		metrics:  NewMetrics(),
	}
	RegisterProcessMetrics(s.metrics)
	s.batcher = NewBatcher(BatcherConfig{
		MaxBatch:     cfg.MaxBatch,
		MaxWait:      cfg.MaxWait,
		Workers:      cfg.Workers,
		FlushWorkers: cfg.FlushWorkers,
		MaxPending:   cfg.MaxPending,
		Sizes:        s.metrics.Histogram("ifair_batch_size", batchSizeBuckets),
		FlushPanics:  s.metrics.Counter("batcher_flush_panics"),
		Abandoned:    s.metrics.Counter("batcher_rows_abandoned"),
		Shed:         s.metrics.Counter("batcher_rows_shed"),
	})
	s.limiter = admission.NewLimiter(admission.Config{
		MaxConcurrent: cfg.MaxInflight,
		MaxQueue:      cfg.MaxQueue,
		MaxQueueWait:  cfg.MaxQueueWait,
	})
	s.metrics.GaugeFunc("ifair_admission_queue_depth", func() float64 {
		return float64(s.limiter.Stats().QueueDepth)
	})
	s.metrics.GaugeFunc("ifair_admission_inflight", func() float64 {
		return float64(s.limiter.Stats().Inflight)
	})
	s.metrics.GaugeFunc("batcher_pending_rows", func() float64 {
		return float64(s.batcher.PendingRows())
	})
	s.registry.SetFailureCounter(s.metrics.Counter("registry_reload_failures"))
	if cfg.Rollout != nil {
		s.rollouts = NewRolloutManager(*cfg.Rollout, s.registry, s.metrics, cfg.ModelDir, cfg.Rollout.Logf)
	}
	if _, _, err := s.registry.Reload(); err != nil {
		if s.registry.Len() == 0 {
			return nil, fmt.Errorf("server: initial model load: %w", err)
		}
		s.ready.Store(true)
		return s, fmt.Errorf("server: some model files failed to load: %w", err)
	}
	s.ready.Store(true)
	return s, nil
}

// Registry exposes the model registry (for hot-reload loops and tests).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics exposes the metrics registry (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Rollouts exposes the canary rollout manager (nil when Config.Rollout
// is unset); cmd/ifair-server runs its guard loop alongside the
// registry watch.
func (s *Server) Rollouts() *RolloutManager { return s.rollouts }

// Close flushes the micro-batcher and stops its flush workers. Call
// after the HTTP server has drained.
func (s *Server) Close() { s.batcher.Close() }

// Handler returns the fully instrumented HTTP handler. Model inference
// endpoints sit behind admission control; health probes, /metrics and
// the registry listing are never queued or shed, so operators can always
// observe an overloaded server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("/healthz", false, s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("/readyz", false, s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("/metrics", false, s.handleMetrics))
	mux.Handle("GET /v1/models", s.instrument("/v1/models", false, s.handleListModels))
	mux.Handle("GET /v1/sync/manifest", s.instrument("/v1/sync/manifest", false, s.handleSyncManifest))
	mux.Handle("GET /v1/sync/files/{file}", s.instrument("/v1/sync/files", false, s.handleSyncFile))
	mux.Handle("POST /v1/models/{name}/transform", s.instrument("/v1/models/transform", true, s.handleTransform))
	mux.Handle("POST /v1/models/{name}/probabilities", s.instrument("/v1/models/probabilities", true, s.handleProbabilities))
	return mux
}

// ---- listing and error bodies ----

type listResponse struct {
	Models []Info `json:"models"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// httpError is an error with an HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// setRetryAfter stamps the shed-response backoff hint (whole seconds,
// rounded up, minimum 1).
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// writeError maps an error to a JSON error response: httpError keeps its
// status, overload sheds become 429 (queue/batcher full) or 503 (queue
// wait exceeded or deadline already passed) with a Retry-After hint, a
// server-side deadline expiry becomes 504 Gateway Timeout, and
// everything else is a 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		if he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable {
			s.setRetryAfter(w)
		}
		writeJSON(w, he.status, errorResponse{Error: he.msg})
	case errors.Is(err, ErrBusy), errors.Is(err, admission.ErrQueueFull):
		s.setRetryAfter(w)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, admission.ErrQueueTimeout), errors.Is(err, admission.ErrDeadline):
		s.setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "request deadline exceeded"})
	case errors.Is(err, context.Canceled):
		// The caller is gone; the status survives only in logs/metrics.
		s.setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request cancelled"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() || s.registry.Len() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no models loaded")
		return
	}
	fmt.Fprintf(w, "ready: %d model(s)\n", s.registry.Len())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.metrics.WriteTo(w)
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, listResponse{Models: s.registry.List()})
}

// resolveEntry finds the model named in the URL, honouring an optional
// ?version=N query parameter.
func (s *Server) resolveEntry(r *http.Request) (*Entry, error) {
	name := r.PathValue("name")
	if v := r.URL.Query().Get("version"); v != "" {
		ver, err := strconv.Atoi(v)
		if err != nil || ver <= 0 {
			return nil, badRequest("invalid version %q", v)
		}
		e, ok := s.registry.GetVersion(name, ver)
		if !ok {
			return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("model %q version %d not found", name, ver)}
		}
		return e, nil
	}
	e, ok := s.registry.Get(name)
	if !ok {
		return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("model %q not found", name)}
	}
	return e, nil
}

// checkRowWidths validates every row against the resolved model version.
func checkRowWidths(rb *rowsBuf, entry *Entry) error {
	want := entry.Model.Dims()
	for i := 0; i < rb.n(); i++ {
		if got := len(rb.row(i)); got != want {
			return badRequest("row %d has %d attributes, model %s expects %d", i, got, entry.Key(), want)
		}
	}
	return nil
}

// CanaryKeyHeader names the request header whose value, when present,
// is the traffic-split key for canary routing. Without it the key is
// derived from the first row's bits, so identical inputs still route
// consistently (and across process restarts).
const CanaryKeyHeader = "X-Canary-Key"

// canaryKey extracts the traffic-split key for a request.
func canaryKey(r *http.Request, row []float64) string {
	if k := r.Header.Get(CanaryKeyHeader); k != "" {
		return k
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range row {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// routeTransform resolves the serving entry for a transform request:
// explicit ?version=N bypasses rollout; otherwise an active rollout
// splits traffic by request key, and without one the registry's serving
// policy applies. The returned Rollout is non-nil when the request
// should be recorded against an arm.
func (s *Server) routeTransform(r *http.Request, first []float64) (*Entry, *Rollout, error) {
	if s.rollouts == nil || r.URL.Query().Get("version") != "" {
		e, err := s.resolveEntry(r)
		return e, nil, err
	}
	name := r.PathValue("name")
	ro := s.rollouts.For(name)
	if ro == nil {
		e, err := s.resolveEntry(r)
		return e, nil, err
	}
	entry, ok := ro.Route(canaryKey(r, first))
	if !ok {
		return nil, nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("model %q not found", name)}
	}
	return entry, ro, nil
}

func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	rb := getRowsBuf()
	if err := s.decodeRows(w, r, rb); err != nil {
		rb.release()
		s.writeError(w, err)
		return
	}
	entry, ro, err := s.routeTransform(r, rb.row(0))
	if err != nil {
		rb.release()
		s.writeError(w, err)
		return
	}
	start := time.Now()
	// record feeds the rollout's live statistics: per-arm counters and
	// latency, input drift, and (sampled) the live consistency of the
	// served (input, transform) pair.
	record := func(isErr bool, xt []float64) {
		if ro != nil {
			ro.Record(entry.Version, time.Since(start), isErr, rb.row(0), xt)
		}
	}
	fail := func(err error) {
		record(true, nil)
		rb.release()
		s.writeError(w, err)
	}
	if err := checkRowWidths(rb, entry); err != nil {
		fail(err)
		return
	}

	// Every row has the model's width, so the decoded rows are the
	// kernel's row-major input as they stand.
	n, dims := rb.n(), entry.Model.Dims()
	x, xt := rb.vals, rb.result(dims)
	if n == 1 {
		// Single-row requests go through the micro-batcher so concurrent
		// callers share one batched transform. After an error (ctx expiry
		// included) a late flush may still read x and write xt, so rb is
		// left to the garbage collector instead of the pool.
		if err := s.batcher.TransformRowInto(r.Context(), entry, xt, x); err != nil {
			record(true, nil)
			s.writeError(w, err)
			return
		}
	} else {
		kern, err := entry.Kernel()
		if err != nil {
			fail(err)
			return
		}
		if err := kern.TransformInto(mat.NewDenseData(n, dims, xt), mat.NewDenseData(n, dims, x), s.cfg.Workers); err != nil {
			fail(badRequest("%v", err))
			return
		}
	}
	if err := writeRows(w, rb, entry, rowsKey, dims); err != nil {
		fail(err)
		return
	}
	record(false, xt[:dims])
	rb.release()
}

func (s *Server) handleProbabilities(w http.ResponseWriter, r *http.Request) {
	entry, err := s.resolveEntry(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rb := getRowsBuf()
	defer rb.release() // no batcher on this path: rb is always ours again
	if err := s.decodeRows(w, r, rb); err != nil {
		s.writeError(w, err)
		return
	}
	if err := checkRowWidths(rb, entry); err != nil {
		s.writeError(w, err)
		return
	}
	kern, err := entry.Kernel()
	if err != nil {
		s.writeError(w, err)
		return
	}
	k := kern.K()
	u := rb.result(k)
	for i := 0; i < rb.n(); i++ {
		if err := kern.ProbabilitiesInto(u[i*k:(i+1)*k], rb.row(i)); err != nil {
			s.writeError(w, badRequest("row %d: %v", i, err))
			return
		}
	}
	if err := writeRows(w, rb, entry, probabilitiesKey, k); err != nil {
		s.writeError(w, err)
	}
}
