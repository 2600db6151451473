// Package router is the scale-out serving tier: a reverse proxy that
// spreads /v1/models traffic across N ifair-server replicas. Every
// proxied request goes through one loop and one balancing rule:
// consistent hashing on model name@version for cache locality, with a
// bounded-load spill to the next replica on the ring. The router evicts
// and re-admits replicas from /readyz probes with hysteresis, honours
// per-replica Retry-After by routing around shedding backends instead of
// retrying into them, and exports fleet-level metrics: per-replica
// goodput, evictions, re-admissions, reroutes and model-sync lag. One
// ifair-server caps out at one machine; the router is how the learned
// fair representations serve "millions of users" (ROADMAP) — and the
// aggregation point the certified-audit endpoints of Ruoss et al. 2020
// would hang off.
package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// latencyBuckets spans 100µs to 10s, matching the replica layout so
// router and backend histograms line up on dashboards.
var latencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Config sizes a Router.
type Config struct {
	// Backends are the replica base URLs (e.g. "http://host:8080").
	Backends []string

	// ProbeInterval is the /readyz polling cadence (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default ProbeInterval).
	ProbeTimeout time.Duration
	// FailAfter evicts a replica after this many consecutive failed
	// probes (default 2).
	FailAfter int
	// ReadmitAfter re-admits an evicted replica after this many
	// consecutive successful probes (default 2) — hysteresis, so a
	// flapping backend does not thrash in and out of rotation.
	ReadmitAfter int
	// RequestTimeout bounds each proxied request (default 10s); a
	// client's X-Request-Timeout-Ms budget is clamped to it.
	RequestTimeout time.Duration
	// MaxBodyBytes caps proxied request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxCooldown caps how long a Retry-After hint keeps a replica out
	// of rotation (default 5s), so one absurd hint cannot blackhole a
	// healthy backend.
	MaxCooldown time.Duration
}

func (c *Config) fillDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 5 * time.Second
	}
}

// Router proxies the serving API across a fleet of replicas.
type Router struct {
	cfg      Config
	replicas []*Replica
	ring     hashRing
	metrics  *server.Metrics

	reroutes    *server.Counter
	noBackend   *server.Counter
	evictions   map[string]*server.Counter
	readmits    map[string]*server.Counter
	probeClient *http.Client
}

// New builds a Router over the configured backends.
func New(cfg Config) (*Router, error) {
	cfg.fillDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	rt := &Router{
		cfg:         cfg,
		metrics:     server.NewMetrics(),
		evictions:   make(map[string]*server.Counter),
		readmits:    make(map[string]*server.Counter),
		probeClient: &http.Client{Timeout: cfg.ProbeTimeout},
	}
	server.RegisterProcessMetrics(rt.metrics)
	for _, b := range cfg.Backends {
		url := strings.TrimSuffix(b, "/")
		rep := newReplica(url)
		rep.ok = rt.metrics.Counter("router_replica_ok_total", "replica="+url)
		rep.failed = rt.metrics.Counter("router_replica_errors_total", "replica="+url)
		rep.shed = rt.metrics.Counter("router_replica_shed_total", "replica="+url)
		rt.evictions[url] = rt.metrics.Counter("router_evictions_total", "replica="+url)
		rt.readmits[url] = rt.metrics.Counter("router_readmissions_total", "replica="+url)
		rt.metrics.GaugeFunc("router_replica_healthy", func() float64 {
			if rep.Healthy() {
				return 1
			}
			return 0
		}, "replica="+url)
		rt.metrics.GaugeFunc("router_replica_inflight", func() float64 {
			return float64(rep.Inflight())
		}, "replica="+url)
		rt.metrics.GaugeFunc("router_replica_sync_lag_files", func() float64 {
			return float64(rep.SyncLag())
		}, "replica="+url)
		rt.replicas = append(rt.replicas, rep)
	}
	rt.ring = newHashRing(rt.replicas)
	rt.reroutes = rt.metrics.Counter("router_reroutes_total")
	rt.noBackend = rt.metrics.Counter("router_no_backend_total")
	return rt, nil
}

// available returns the replicas the ring may pick right now,
// excluding any in tried.
func (rt *Router) available(now time.Time, tried map[*Replica]bool) []*Replica {
	out := make([]*Replica, 0, len(rt.replicas))
	for _, r := range rt.replicas {
		if r.Available(now) && !tried[r] {
			out = append(out, r)
		}
	}
	return out
}

// Handler returns the router's HTTP handler: the proxied serving API
// plus the router's own health and metrics endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = rt.metrics.WriteTo(w)
	})
	mux.HandleFunc("GET /v1/models", rt.handleProxy)
	mux.HandleFunc("GET /v1/sync/manifest", rt.handleProxy)
	mux.HandleFunc("POST /v1/models/{name}/transform", rt.handleProxy)
	mux.HandleFunc("POST /v1/models/{name}/probabilities", rt.handleProxy)
	return mux
}

// handleReadyz reports ready while at least one replica is in rotation.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	n := 0
	for _, rep := range rt.replicas {
		if rep.Healthy() {
			n++
		}
	}
	if n == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no healthy replicas")
		return
	}
	fmt.Fprintf(w, "ready: %d/%d replica(s)\n", n, len(rt.replicas))
}

// routeKey is what the hash ring sees: model name plus the pinned
// version if the client asked for one, so name@v3 and the floating
// latest hash independently. The read-only endpoints carry no name and
// all share the key "".
func routeKey(r *http.Request) string {
	name := r.PathValue("name")
	if v := r.URL.Query().Get("version"); v != "" {
		return name + "@v" + v
	}
	return name
}

// handleProxy forwards one serving-API request — POST transform and
// probabilities, GET /v1/models and /v1/sync/manifest — rerouting across
// replicas on transport errors, shed responses (429/503, which also
// start the replica's Retry-After cooldown), server errors, and 404s (a
// replica whose model sync is lagging may genuinely not have a model its
// peers already serve).
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSONError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), server.EffectiveTimeout(r, rt.cfg.RequestTimeout))
	defer cancel()

	path := r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	key := routeKey(r)
	latency := rt.metrics.Histogram("router_request_duration_seconds", latencyBuckets, "path=/v1/models")
	start := time.Now()

	tried := make(map[*Replica]bool, len(rt.replicas))
	var lastShed *server.StatusError
	var lastErr error
	for attempt := 0; attempt < len(rt.replicas); attempt++ {
		candidates := rt.available(time.Now(), tried)
		if len(candidates) == 0 {
			break
		}
		rep := rt.ring.pick(key, candidates)
		tried[rep] = true
		if attempt > 0 {
			rt.reroutes.Inc()
		}

		var resp []byte
		rep.inflight.Add(1)
		if r.Method == http.MethodGet {
			resp, err = rep.Client.GetRaw(ctx, path)
		} else {
			resp, err = rep.Client.PostRaw(ctx, path, body)
		}
		rep.inflight.Add(-1)

		if err == nil {
			rep.ok.Inc()
			latency.Observe(time.Since(start).Seconds())
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(resp)
			return
		}
		if ctx.Err() != nil {
			latency.Observe(time.Since(start).Seconds())
			writeJSONError(w, http.StatusGatewayTimeout, "request deadline exceeded")
			return
		}
		var se *server.StatusError
		switch {
		case errors.As(err, &se) && (se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable):
			// An overloaded replica said back off: honour it fleet-wide by
			// cooling this replica down and trying another — never retry
			// into a backend that just shed.
			rep.shed.Inc()
			rep.startCooldown(time.Now(), se.RetryAfter, rt.cfg.MaxCooldown)
			lastShed, lastErr = se, err
		case errors.As(err, &se) && se.Status != http.StatusNotFound && se.Status < http.StatusInternalServerError:
			// A definitive client error (400 validation, 413, ...) will be
			// the same everywhere; relay it as-is.
			latency.Observe(time.Since(start).Seconds())
			writeJSONError(w, se.Status, se.Body)
			return
		default:
			// Transport error, 5xx, or 404 (possibly sync lag): count it
			// against the replica and let another one try.
			rep.failed.Inc()
			lastErr = err
		}
	}
	latency.Observe(time.Since(start).Seconds())

	// Nothing left to try. Prefer relaying the most informative failure.
	switch {
	case lastShed != nil:
		secs := int(lastShed.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSONError(w, http.StatusServiceUnavailable, "all replicas shedding: "+lastShed.Body)
	case lastErr != nil:
		var se *server.StatusError
		if errors.As(lastErr, &se) {
			writeJSONError(w, se.Status, se.Body)
			return
		}
		writeJSONError(w, http.StatusBadGateway, lastErr.Error())
	default:
		rt.noBackend.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusServiceUnavailable, "no healthy replicas")
	}
}

// writeJSONError mirrors the replica error body shape so clients see one
// format regardless of which tier produced the error.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}
