// Command ifair-router is the scale-out serving tier: a reverse proxy
// that spreads /v1/models traffic across N ifair-server replicas with
// consistent hashing on model name@version (bounded-load spill),
// health-probe-driven replica eviction and re-admission, and admission
// awareness — a replica that sheds with Retry-After is cooled down and
// routed around, never retried into.
//
// Usage against two running replicas:
//
//	ifair-server -models ./models -addr :8081 &
//	ifair-server -models ./models -addr :8082 &
//	ifair-router -addr :8080 \
//	    -backends http://localhost:8081,http://localhost:8082
//	curl -s -X POST localhost:8080/v1/models/credit/transform \
//	     -d '{"rows": [[0.1, -1.2, 0.5]]}'
//
// Endpoints: everything the replicas serve (POST transform /
// probabilities, GET /v1/models, GET /v1/sync/manifest) plus the
// router's own /healthz, /readyz (ready while ≥ 1 replica is in
// rotation) and /metrics (per-replica goodput, evictions, re-admissions,
// reroutes, sync lag, process gauges).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ifair-router:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		backends      = flag.String("backends", "", "comma-separated replica base URLs, e.g. http://h1:8081,http://h2:8081")
		probeInterval = flag.Duration("probe-interval", 250*time.Millisecond, "/readyz polling cadence")
		probeTimeout  = flag.Duration("probe-timeout", 0, "probe round-trip bound (0 = probe-interval)")
		failAfter     = flag.Int("fail-after", 2, "consecutive failed probes before eviction")
		readmitAfter  = flag.Int("readmit-after", 2, "consecutive healthy probes before re-admission")
		timeout       = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		maxBody       = flag.Int64("max-body", 8<<20, "request body size limit in bytes")
		maxCooldown   = flag.Duration("max-cooldown", 5*time.Second, "cap on Retry-After route-around cooldowns")
		drain         = flag.Duration("drain", 15*time.Second, "max time to drain in-flight requests on shutdown")
	)
	flag.Parse()
	if *backends == "" {
		return errors.New("specify -backends url1,url2,...")
	}
	urls := strings.Split(*backends, ",")
	for i := range urls {
		urls[i] = strings.TrimSpace(urls[i])
	}

	cfg := router.Config{
		Backends:       urls,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		FailAfter:      *failAfter,
		ReadmitAfter:   *readmitAfter,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		MaxCooldown:    *maxCooldown,
	}

	rt, err := router.New(cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.Start(ctx, log.Printf)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("routing across %d replica(s) on %s (probe every %v, evict after %d, readmit after %d)",
			len(urls), *addr, *probeInterval, *failAfter, *readmitAfter)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("signal received, draining in-flight requests (up to %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	log.Printf("drained cleanly, bye")
	return nil
}
