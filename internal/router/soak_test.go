package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The soak tests validate the scale-out acceptance criteria with a
// sleep-bound capacity model: every replica is wrapped in a gate of
// gateSlots concurrent requests, each holding its slot for gateDelay.
// Capacity is then gateSlots/gateDelay per replica — bounded by the
// injected sleep, not by CPU — so N in-process replicas genuinely have
// N× the capacity of one, and goodput ratios measure the router, not
// the scheduler.
// Calibration: capacity must sit far below the CPU ceiling of the test
// host (a single core under the race detector sustains ~700 req/s
// through two HTTP hops), or the scheduler — not the router — bounds
// goodput and the scaling ratio collapses. 2 slots × 40ms gives each
// replica 50 req/s: a 4-replica fleet peaks at 200 req/s, leaving ~3×
// headroom to the ceiling.
const (
	gateSlots = 2
	gateDelay = 40 * time.Millisecond

	soakWorkers = 32
	soakModels  = 16

	soakWarmup = 500 * time.Millisecond
	soakWindow = 1500 * time.Millisecond
)

// gated wraps a handler with the capacity gate. Probes and reads bypass
// the gate so health checking stays cheap.
func gated(h http.Handler) http.Handler {
	sem := make(chan struct{}, gateSlots)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			sem <- struct{}{}
			time.Sleep(gateDelay)
			defer func() { <-sem }()
		}
		h.ServeHTTP(w, r)
	})
}

// soakFleet is n gated, killable replicas behind a router with fast
// probes, plus the model names the workers will hammer.
type soakFleet struct {
	rt     *Router
	front  *httptest.Server
	downs  []*atomic.Bool
	models []string

	lastFail atomic.Value // sample failure detail for diagnostics
}

func newSoakFleet(t *testing.T, n int) *soakFleet {
	t.Helper()
	dir := t.TempDir()
	f := &soakFleet{}
	for i := 0; i < soakModels; i++ {
		name := fmt.Sprintf("model%d", i)
		writeTestModel(t, dir, name+".json", 3)
		f.models = append(f.models, name)
	}
	var backends []string
	for i := 0; i < n; i++ {
		ts, down := newGatedBackend(t, dir)
		backends = append(backends, ts.URL)
		f.downs = append(f.downs, down)
	}
	rt, err := New(Config{
		Backends:      backends,
		ProbeInterval: 25 * time.Millisecond,
		// A dead replica fails probes instantly (connection severed), so a
		// generous timeout keeps eviction fast while stopping a loaded-but-
		// alive replica from flapping out when the race detector stretches
		// a round trip past the probe interval.
		ProbeTimeout:   500 * time.Millisecond,
		FailAfter:      2,
		ReadmitAfter:   2,
		SyncLagEvery:   -1,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	f.front = httptest.NewServer(rt.Handler())
	t.Cleanup(f.front.Close)
	return f
}

// newGatedBackend is newBackend with the capacity gate between the kill
// switch and the real server.
func newGatedBackend(t *testing.T, dir string) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	ts, down := newBackendWrapped(t, dir, gated)
	return ts, down
}

// run hammers the fleet with soakWorkers closed-loop workers until ctx
// ends, counting per-phase successes and hard failures. The phase index
// is read at request start, so a phase switch cleanly partitions counts.
func (f *soakFleet) run(ctx context.Context, phase *atomic.Int64, ok, fail []atomic.Int64) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: soakWorkers}}
	var wg sync.WaitGroup
	for w := 0; w < soakWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := f.models[w%len(f.models)]
			url := f.front.URL + "/v1/models/" + model + "/transform"
			body := `{"rows": [[0.1, -1.2, 0.5]]}`
			for ctx.Err() == nil {
				p := phase.Load()
				resp, err := client.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					if ctx.Err() == nil {
						fail[p].Add(1)
						f.lastFail.Store(err.Error())
					}
					continue
				}
				data, _ := readAll(resp)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ok[p].Add(1)
				} else if ctx.Err() == nil {
					fail[p].Add(1)
					f.lastFail.Store(fmt.Sprintf("status %d: %s", resp.StatusCode, data))
				}
			}
		}(w)
	}
	wg.Wait()
}

// measureGoodput runs one warmed-up measurement window against a fleet
// of n replicas and returns successes per second.
func measureGoodput(t *testing.T, n int, window time.Duration) float64 {
	t.Helper()
	f := newSoakFleet(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.rt.Start(ctx, nil)

	var phase atomic.Int64
	ok := make([]atomic.Int64, 2)
	fail := make([]atomic.Int64, 2)
	done := make(chan struct{})
	go func() { defer close(done); f.run(ctx, &phase, ok, fail) }()

	time.Sleep(soakWarmup) // warmup counts into phase 0
	phase.Store(1)
	time.Sleep(window)
	cancel()
	<-done

	if n := fail[1].Load(); n > ok[1].Load()/50 {
		t.Fatalf("steady state saw %d hard failures vs %d successes (sample: %v)", n, ok[1].Load(), f.lastFail.Load())
	}
	return float64(ok[1].Load()) / window.Seconds()
}

// TestRouterSoakGoodputScales is acceptance criterion 1: four replicas
// behind the router deliver at least 3× the goodput of one.
func TestRouterSoakGoodputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	one := measureGoodput(t, 1, soakWindow)
	four := measureGoodput(t, 4, soakWindow)
	t.Logf("goodput: 1 replica %.0f req/s, 4 replicas %.0f req/s (%.2fx)", one, four, four/one)

	// Sanity-check the capacity model before trusting the ratio: one
	// replica is sleep-bound near gateSlots/gateDelay.
	capacity := float64(gateSlots) / gateDelay.Seconds()
	if one < 0.4*capacity || one > 1.2*capacity {
		t.Fatalf("1-replica goodput %.0f req/s implausible for capacity %.0f — gate not binding", one, capacity)
	}
	if four < 3*one {
		t.Fatalf("4-replica goodput %.0f req/s < 3x 1-replica %.0f req/s", four, one)
	}
}

// TestRouterSoakSurvivesReplicaKill is acceptance criterion 2: killing
// one of four replicas mid-burst costs at most its traffic share — no
// error storm — and the probes evict it within the hysteresis window.
// The killed replica then comes back under the same load: the probes
// re-admit it and goodput holds without a burst of failures.
func TestRouterSoakSurvivesReplicaKill(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	f := newSoakFleet(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.rt.Start(ctx, nil)

	// Phases: 0 warmup, 1 pre-kill, 2 kill settling, 3 post-kill,
	// 4 revival settling, 5 revived.
	var phase atomic.Int64
	ok := make([]atomic.Int64, 6)
	fail := make([]atomic.Int64, 6)
	done := make(chan struct{})
	go func() { defer close(done); f.run(ctx, &phase, ok, fail) }()

	window := soakWindow
	time.Sleep(soakWarmup)
	phase.Store(1)
	time.Sleep(window)

	// Kill replica 0 mid-burst and wait for the probe loop to notice.
	phase.Store(2)
	f.downs[0].Store(true)
	killedAt := time.Now()
	victim := f.rt.Replicas()[0]
	for victim.Healthy() && time.Since(killedAt) < 2*time.Second {
		time.Sleep(5 * time.Millisecond)
	}
	evictionLag := time.Since(killedAt)
	if victim.Healthy() {
		t.Fatal("killed replica never evicted")
	}
	// FailAfter=2 probes at 25ms: eviction should land within a few
	// probe rounds; 500ms of slack absorbs scheduler noise.
	if evictionLag > 500*time.Millisecond {
		t.Fatalf("eviction took %v, want within the hysteresis window (~50ms) plus slack", evictionLag)
	}

	time.Sleep(300 * time.Millisecond) // let routing settle post-eviction
	phase.Store(3)
	time.Sleep(window)

	// Bring replica 0 back under load and wait for the probes to
	// re-admit it (ReadmitAfter=2 probes at 25ms).
	phase.Store(4)
	f.downs[0].Store(false)
	revivedAt := time.Now()
	for !victim.Healthy() && time.Since(revivedAt) < 2*time.Second {
		time.Sleep(5 * time.Millisecond)
	}
	readmitLag := time.Since(revivedAt)
	if !victim.Healthy() {
		t.Fatal("revived replica never re-admitted")
	}
	time.Sleep(300 * time.Millisecond) // let routing settle post-readmission
	phase.Store(5)
	time.Sleep(window)
	cancel()
	<-done

	pre := float64(ok[1].Load()) / window.Seconds()
	post := float64(ok[3].Load()) / window.Seconds()
	revived := float64(ok[5].Load()) / window.Seconds()
	t.Logf("goodput: pre-kill %.0f req/s, post-kill %.0f req/s (eviction after %v), revived %.0f req/s (re-admission after %v)",
		pre, post, evictionLag, revived, readmitLag)

	// Losing 1 of 4 replicas may cost its 25%% share, no more. The 0.6
	// floor (vs the ideal 0.75) absorbs measurement noise.
	if post < 0.6*pre {
		t.Fatalf("post-kill goodput %.0f req/s < 60%% of pre-kill %.0f req/s — lost more than the dead replica's share", post, pre)
	}
	// No error storm: the router reroutes transport failures, so client-
	// visible errors across the whole run stay marginal (the kill instant
	// can surface a handful from requests already in flight).
	var failures, successes int64
	for i := range ok {
		successes += ok[i].Load()
		failures += fail[i].Load()
	}
	if failures > successes/50 {
		t.Fatalf("%d client-visible failures vs %d successes — error storm instead of clean reroute (sample: %v)", failures, successes, f.lastFail.Load())
	}
	if f.rt.metrics.Counter("router_evictions_total", "replica="+victim.URL).Value() < 1 {
		t.Fatal("eviction happened but the evictions counter never moved")
	}

	// The returning replica must not cost goodput or surface failures:
	// requests routed to it while it rejoins succeed like any other.
	if f.rt.metrics.Counter("router_readmissions_total", "replica="+victim.URL).Value() < 1 {
		t.Fatal("re-admission happened but the readmissions counter never moved")
	}
	if revived < 0.6*pre {
		t.Fatalf("revived goodput %.0f req/s < 60%% of pre-kill %.0f req/s", revived, pre)
	}
	revivalOK := ok[4].Load() + ok[5].Load()
	if n := fail[4].Load() + fail[5].Load(); n > revivalOK/50 {
		t.Fatalf("%d client-visible failures vs %d successes while the replica rejoined (sample: %v)", n, revivalOK, f.lastFail.Load())
	}
}
