package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/server"
)

// Start launches the health-probe loops (one per replica) and the
// fleet-wide sync-lag loop, and returns immediately; all of them stop
// when ctx is cancelled. logf (which may be nil) receives eviction and
// re-admission events.
func (rt *Router) Start(ctx context.Context, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for _, rep := range rt.replicas {
		go rt.probeLoop(ctx, rep, logf)
	}
	go rt.syncLagLoop(ctx)
}

// probeLoop polls one replica's /readyz every ProbeInterval, applying
// eviction/re-admission hysteresis.
func (rt *Router) probeLoop(ctx context.Context, rep *Replica, logf func(string, ...any)) {
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.probeOnce(rep, logf)
		}
	}
}

// syncLagEvery is how many probe intervals pass between sync-manifest
// polls for the per-replica sync-lag gauges.
const syncLagEvery = 4

// syncLagLoop refreshes the fleet's sync-lag gauges every syncLagEvery
// probe intervals: one manifest GET per healthy replica per round, from
// this one goroutine, which is the gauges' only writer.
func (rt *Router) syncLagLoop(ctx context.Context) {
	t := time.NewTicker(syncLagEvery * rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.refreshSyncLag(ctx)
		}
	}
}

// probeOnce performs one health probe against rep and applies the
// hysteresis state machine: FailAfter consecutive failures evict,
// ReadmitAfter consecutive successes re-admit. It is called only from
// the replica's own probe goroutine (or sequentially in tests), so the
// consecutive counters need no locking.
func (rt *Router) probeOnce(rep *Replica, logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ok := rt.probe(rep)
	if ok {
		rep.consecOK++
		rep.consecFail = 0
		if !rep.Healthy() && rep.consecOK >= rt.cfg.ReadmitAfter {
			rep.healthy.Store(true)
			rt.readmits[rep.URL].Inc()
			logf("router: replica %s re-admitted after %d healthy probe(s)", rep.URL, rep.consecOK)
		}
		return
	}
	rep.consecFail++
	rep.consecOK = 0
	if rep.Healthy() && rep.consecFail >= rt.cfg.FailAfter {
		rep.healthy.Store(false)
		rt.evictions[rep.URL].Inc()
		logf("router: replica %s evicted after %d failed probe(s)", rep.URL, rep.consecFail)
	}
}

// probe reports whether one /readyz round trip succeeded.
func (rt *Router) probe(rep *Replica) bool {
	resp, err := rt.probeClient.Get(rep.URL + "/readyz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// refreshSyncLag pulls every healthy replica's sync manifest, computes
// the fleet union of (file, size, crc) tuples, and sets each replica's
// lag to the number of union entries it is missing or serving different
// bytes for — 0 everywhere once the fleet has converged.
func (rt *Router) refreshSyncLag(ctx context.Context) {
	type fileID struct {
		file, crc string
		size      int64
	}
	manifests := make(map[*Replica]map[string]fileID, len(rt.replicas))
	union := make(map[fileID]bool)
	for _, rep := range rt.replicas {
		if !rep.Healthy() {
			continue
		}
		reqCtx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
		data, err := rep.Client.GetRaw(reqCtx, "/v1/sync/manifest")
		cancel()
		if err != nil {
			continue
		}
		var man server.Manifest
		if json.Unmarshal(data, &man) != nil {
			continue
		}
		files := make(map[string]fileID, len(man.Files))
		for _, e := range man.Files {
			id := fileID{file: e.File, crc: e.CRC64, size: e.Size}
			files[e.File] = id
			union[id] = true
		}
		manifests[rep] = files
	}
	for rep, files := range manifests {
		lag := 0
		for id := range union {
			if have, ok := files[id.file]; !ok || have != id {
				lag++
			}
		}
		rep.syncLag.Store(int64(lag))
	}
}
