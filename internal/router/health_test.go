package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flipBackend is a /readyz endpoint whose verdict a test can toggle.
func flipBackend(t *testing.T) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	ready := &atomic.Bool{}
	ready.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	return ts, ready
}

func TestProbeHysteresis(t *testing.T) {
	ts, ready := flipBackend(t)
	rt, err := New(Config{Backends: []string{ts.URL}, FailAfter: 2, ReadmitAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.replicas[0]

	// One failed probe is noise, not an outage.
	ready.Store(false)
	rt.probeOnce(rep, nil)
	if !rep.Healthy() {
		t.Fatal("evicted after a single failed probe (FailAfter=2)")
	}
	// The second consecutive failure evicts.
	rt.probeOnce(rep, nil)
	if rep.Healthy() {
		t.Fatal("still healthy after FailAfter consecutive failures")
	}
	if rt.evictions[rep.URL].Value() != 1 {
		t.Fatalf("evictions counter %d, want 1", rt.evictions[rep.URL].Value())
	}

	// One good probe is not enough to re-admit (no flapping).
	ready.Store(true)
	rt.probeOnce(rep, nil)
	if rep.Healthy() {
		t.Fatal("re-admitted after a single healthy probe (ReadmitAfter=2)")
	}
	// An intervening failure resets the streak.
	ready.Store(false)
	rt.probeOnce(rep, nil)
	ready.Store(true)
	rt.probeOnce(rep, nil)
	if rep.Healthy() {
		t.Fatal("re-admitted without ReadmitAfter consecutive successes")
	}
	rt.probeOnce(rep, nil)
	if !rep.Healthy() {
		t.Fatal("not re-admitted after ReadmitAfter consecutive healthy probes")
	}
	if rt.readmits[rep.URL].Value() != 1 {
		t.Fatalf("readmissions counter %d, want 1", rt.readmits[rep.URL].Value())
	}
}

func TestProbeTransportErrorCountsAsFailure(t *testing.T) {
	ts, _ := flipBackend(t)
	url := ts.URL
	ts.Close() // connection refused from here on
	rt, err := New(Config{Backends: []string{url}, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.replicas[0]
	rt.probeOnce(rep, nil)
	if rep.Healthy() {
		t.Fatal("replica with a refused /readyz connection stayed in rotation")
	}
}

// TestProbeLoopEvictsWithinWindow drives the real probe goroutines: a
// replica that dies must leave rotation within roughly
// FailAfter × ProbeInterval.
func TestProbeLoopEvictsWithinWindow(t *testing.T) {
	rt, _, downs := newTestRouter(t, 2, Config{
		ProbeInterval: 20 * time.Millisecond,
		FailAfter:     2,
		ReadmitAfter:  2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx, nil)

	downs[0].Store(true)
	deadline := time.Now().Add(2 * time.Second) // generous vs the ~40ms expectation
	for time.Now().Before(deadline) {
		if !rt.replicas[0].Healthy() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rt.replicas[0].Healthy() {
		t.Fatal("dead replica never evicted by the probe loop")
	}
	if rt.replicas[1].Healthy() != true {
		t.Fatal("live replica was evicted alongside the dead one")
	}

	// Revive: the probe loop re-admits on its own.
	downs[0].Store(false)
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rt.replicas[0].Healthy() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !rt.replicas[0].Healthy() {
		t.Fatal("revived replica never re-admitted by the probe loop")
	}
}

// TestRefreshSyncLag exercises the fleet-union lag computation against
// two real replicas whose model dirs diverge.
func TestRefreshSyncLag(t *testing.T) {
	dirA := t.TempDir()
	dirB := t.TempDir()
	writeTestModel(t, dirA, "credit.json", 3)
	writeTestModel(t, dirA, "hiring.json", 3)
	writeTestModel(t, dirB, "credit.json", 3) // same bytes: not lagged on credit
	tsA, _ := newBackend(t, dirA)
	tsB, _ := newBackend(t, dirB)

	rt, err := New(Config{Backends: []string{tsA.URL, tsB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.refreshSyncLag(context.Background())
	if lag := rt.replicas[0].SyncLag(); lag != 0 {
		t.Fatalf("replica A lag %d, want 0 (it has everything)", lag)
	}
	if lag := rt.replicas[1].SyncLag(); lag != 1 {
		t.Fatalf("replica B lag %d, want 1 (missing hiring.json)", lag)
	}
}

// TestSyncLagPolledOncePerRound drives Start against three fake replicas
// and counts what each is asked: every probe round sends one /readyz per
// replica, and every syncLagEvery rounds one fleet-wide refresh sends
// one /v1/sync/manifest per replica. A refresh run from each replica's
// own probe loop would triple the manifest count.
func TestSyncLagPolledOncePerRound(t *testing.T) {
	var readyz, manifests atomic.Int64
	var backends []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/readyz":
				readyz.Add(1)
			case "/v1/sync/manifest":
				manifests.Add(1)
				fmt.Fprintln(w, `{"files":[]}`)
			}
		}))
		t.Cleanup(ts.Close)
		backends = append(backends, ts.URL)
	}
	rt, err := New(Config{Backends: backends, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.Start(ctx, nil)
	const rounds = 40
	deadline := time.Now().Add(10 * time.Second)
	for readyz.Load() < 3*rounds && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	r, m := readyz.Load(), manifests.Load()
	if r < 3*rounds {
		t.Fatalf("only %d /readyz probes in 10s", r)
	}
	if m == 0 {
		t.Fatal("sync lag was never polled")
	}
	// Once per round: m ≈ r/syncLagEvery. Per replica per round: 3× that.
	if 2*m > r {
		t.Fatalf("%d manifest GETs for %d readyz probes, want about 1 per %d probes", m, r, syncLagEvery)
	}
}
