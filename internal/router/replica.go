package router

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Replica is one ifair-server backend as the router sees it: its base
// URL, a single-attempt client bound to it (the router reroutes across
// replicas instead of hammering one), and the live state the hash ring,
// prober and metrics read.
type Replica struct {
	// URL is the backend base URL, e.g. "http://10.0.0.7:8080".
	URL string
	// Client performs the proxied round trips.
	Client *server.Client

	healthy       atomic.Bool
	inflight      atomic.Int64
	cooldownUntil atomic.Int64 // unix nanos; Retry-After shed backoff
	syncLag       atomic.Int64 // model files behind the fleet union

	// Prober-goroutine-only hysteresis state.
	consecFail int
	consecOK   int

	// Counters are wired by the router into its /metrics.
	ok, failed, shed *server.Counter
}

// newReplica builds a replica that starts healthy, so a cold-started
// router routes optimistically and lets the first probe round correct it.
func newReplica(url string) *Replica {
	r := &Replica{
		URL: url,
		Client: &server.Client{
			BaseURL: url,
			// A dedicated pooled transport: the default transport keeps
			// only 2 idle conns per host, which under fan-in concurrency
			// degenerates into a dial per request — latency, port churn,
			// and spurious transport errors the router would misread as
			// replica failures.
			HTTPClient: &http.Client{Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     90 * time.Second,
			}},
		},
	}
	r.healthy.Store(true)
	return r
}

// Healthy reports whether the prober currently admits the replica.
func (r *Replica) Healthy() bool { return r.healthy.Load() }

// Inflight returns the number of requests the router currently has
// proxied to this replica.
func (r *Replica) Inflight() int64 { return r.inflight.Load() }

// SyncLag returns how many model files the replica's registry is behind
// the freshest contents seen anywhere in the fleet.
func (r *Replica) SyncLag() int64 { return r.syncLag.Load() }

// InCooldown reports whether the replica recently shed with a
// Retry-After the router is still honouring.
func (r *Replica) InCooldown(now time.Time) bool {
	return now.UnixNano() < r.cooldownUntil.Load()
}

// Available reports whether the router may route to the replica now.
func (r *Replica) Available(now time.Time) bool {
	return r.Healthy() && !r.InCooldown(now)
}

// startCooldown routes traffic away from a shedding replica for d
// (clamped to maxCooldown) without marking it unhealthy: shedding is a
// live backend protecting itself, not a dead one.
func (r *Replica) startCooldown(now time.Time, d, maxCooldown time.Duration) {
	if d <= 0 {
		d = defaultCooldown
	}
	if d > maxCooldown {
		d = maxCooldown
	}
	until := now.Add(d).UnixNano()
	// Never shorten an existing cooldown.
	for {
		cur := r.cooldownUntil.Load()
		if until <= cur || r.cooldownUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// defaultCooldown is the route-around window when a shed response
// carried no usable Retry-After.
const defaultCooldown = 100 * time.Millisecond
