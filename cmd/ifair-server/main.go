// Command ifair-server serves fitted iFair models over HTTP — the
// paper's "train once, use the learned representation for arbitrary
// downstream applications" deployment story as a long-lived service.
//
// Models are JSON files written by `ifair -save` (or Model.Encode),
// placed in a directory as `<name>.json` or `<name>@v<version>.json`;
// the newest version of each name serves by default and the directory
// is rescanned periodically, so new model versions go live without a
// restart.
//
// Usage:
//
//	ifair -dataset credit -k 10 -save models/credit.json
//	ifair-server -models ./models -addr :8080
//	curl -s localhost:8080/v1/models
//	curl -s -X POST localhost:8080/v1/models/credit/transform \
//	     -d '{"rows": [[0.1, -1.2, 0.5]]}'
//
// Endpoints: POST /v1/models/{name}/transform (micro-batched),
// POST /v1/models/{name}/probabilities, GET /v1/models, GET /healthz,
// GET /readyz, GET /metrics. SIGINT/SIGTERM drain in-flight requests
// before exit.
//
// With -rollout, new model versions do not serve immediately: the guard
// loop adopts each as a canary on a deterministic slice of traffic
// (keyed by X-Canary-Key or a row hash), watches live input drift (PSI
// against the model's fit-time `<name>.profile`), a live yNN-consistency
// estimate per arm, error rates and latency, then auto-promotes after a
// healthy window or rolls back and quarantines the version. See the
// README's "Closed-loop rollout" section.
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
	"runtime"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ifair-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		models   = flag.String("models", "", "directory of model JSON files (<name>.json or <name>@v<version>.json)")
		maxBatch = flag.Int("max-batch", 32, "micro-batcher flush threshold (rows)")
		maxWait  = flag.Duration("max-wait", 2*time.Millisecond, "micro-batcher window; 0 disables coalescing")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool width for batched transforms")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		reload   = flag.Duration("reload", 10*time.Second, "model directory rescan interval; 0 disables hot reload")
		drain    = flag.Duration("drain", 15*time.Second, "max time to drain in-flight requests on shutdown")
		maxBody  = flag.Int64("max-body", 8<<20, "request body size limit in bytes")
		maxRows  = flag.Int("max-rows", 10000, "maximum rows per batch request")

		syncFrom  = flag.String("sync-from", "", "origin server base URL to pull model files from (replica mode)")
		syncEvery = flag.Duration("sync-every", 10*time.Second, "model-dir sync interval when -sync-from is set")
		syncPrune = flag.Bool("sync-prune", false, "also remove local model files the sync origin no longer has")

		rollout      = flag.Bool("rollout", false, "closed-loop canary guard: new model versions canary on a traffic slice and auto-promote or roll back")
		canaryFrac   = flag.Float64("canary-fraction", 0, "rollout: share of traffic on the canary arm (0 = default 0.1)")
		canaryWindow = flag.Duration("canary-window", 0, "rollout: healthy observation window before promotion (0 = default 1m)")
		canaryMinReq = flag.Int64("canary-min-requests", 0, "rollout: minimum canary-arm requests before any verdict (0 = default 200)")
		driftPSI     = flag.Float64("drift-psi", 0, "rollout: per-feature PSI alarm threshold (0 = default 0.25)")
		guardTick    = flag.Duration("guard-tick", 0, "rollout: guard-loop evaluation period (0 = default 1s)")

		maxInflight  = flag.Int("max-inflight", 0, "admission: concurrent transform/probabilities requests (0 = 8×GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "admission: waiting requests beyond the inflight cap (0 = 2×inflight, negative disables queueing)")
		queueWait    = flag.Duration("queue-wait", 0, "admission: max time a request may queue before being shed (0 = timeout/2, negative disables)")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429/503) responses")
		flushWorkers = flag.Int("flush-workers", 0, "batcher: flush goroutine pool size (0 = workers)")
		maxPending   = flag.Int("max-pending", 0, "batcher: pending-row cap per model before shedding (0 = 16×max-batch, negative unlimited)")
	)
	flag.Parse()
	if *models == "" {
		return errors.New("specify -models <dir>")
	}

	var rolloutCfg *server.RolloutConfig
	if *rollout {
		rolloutCfg = &server.RolloutConfig{
			Fraction:     *canaryFrac,
			Window:       *canaryWindow,
			MinRequests:  *canaryMinReq,
			DriftPSI:     *driftPSI,
			TickInterval: *guardTick,
			Logf:         log.Printf,
		}
	}

	s, err := server.New(server.Config{
		ModelDir:       *models,
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		Workers:        *workers,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		MaxRows:        *maxRows,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		MaxQueueWait:   *queueWait,
		RetryAfter:     *retryAfter,
		FlushWorkers:   *flushWorkers,
		MaxPending:     *maxPending,
		Rollout:        rolloutCfg,
	})
	if err != nil {
		// A partial load (some corrupt files) is survivable; an empty
		// registry is not worth starting for.
		if s == nil {
			return err
		}
		log.Printf("warning: %v", err)
	}
	for _, info := range s.Registry().List() {
		log.Printf("loaded model %s@v%d (K=%d, N=%d) from %s", info.Name, info.Version, info.K, info.N, info.FileName)
	}
	if s.Registry().Len() == 0 {
		log.Printf("warning: no models in %s yet; serving will begin once the watcher finds some", *models)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *reload > 0 {
		go s.Registry().Watch(ctx, *reload, log.Printf)
	}
	if *rollout {
		// The guard loop adopts newly reloaded/synced versions as canaries
		// and promotes or rolls them back; without it new versions would
		// stay pinned out of the serving path.
		log.Printf("canary guard enabled (drift profiles from %s/<name>.profile)", *models)
		go s.Rollouts().Run(ctx)
	}
	if *syncFrom != "" {
		syncer := &server.Syncer{
			Source: &server.Client{BaseURL: *syncFrom},
			Dir:    *models,
			Prune:  *syncPrune,
		}
		m := s.Metrics()
		syncer.Counters.Synced = m.Counter("model_sync_files_total")
		syncer.Counters.Skipped = m.Counter("model_sync_skipped_total")
		syncer.Counters.Pruned = m.Counter("model_sync_pruned_total")
		syncer.Counters.Errors = m.Counter("model_sync_errors_total")
		log.Printf("pulling model dir from %s every %v (prune=%v)", *syncFrom, *syncEvery, *syncPrune)
		go syncer.Watch(ctx, *syncEvery, log.Printf)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving %d model(s) on %s (batch ≤ %d rows, window %v, %d workers)",
			s.Registry().Len(), *addr, *maxBatch, *maxWait, *workers)
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
	s.Close()
	log.Printf("drained cleanly, bye")
	return nil
}
