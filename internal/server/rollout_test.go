package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/drift"
	"repro/internal/ifair"
	"repro/internal/mat"
)

// postJSONWithHeader posts a JSON body with one extra request header and
// returns the status code (body drained and discarded).
// Unpin removes the pin for name, returning Get to newest-eligible.
func (r *Registry) Unpin(name string) {
	r.mu.Lock()
	delete(r.pins, name)
	r.mu.Unlock()
}

// Quarantined reports whether the given version of name is quarantined.
func (r *Registry) Quarantined(name string, version int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.quarantine[name][version]
}

func postJSONWithHeader(t *testing.T, url string, body any, header, value string) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(header, value)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// ---- deterministic traffic splitting (satellite: ±1% over 100k keys) ----

func TestSplitFractionHonoured(t *testing.T) {
	for _, fraction := range []float64{0.05, 0.1, 0.25, 0.5} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if splitToCanary(fmt.Sprintf("request-key-%d", i), fraction) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-fraction) > 0.01 {
			t.Fatalf("fraction %.2f: observed %.4f, off by more than ±1%%", fraction, got)
		}
	}
}

func TestSplitStablePerKey(t *testing.T) {
	// A pure function of the key: re-evaluating (as a restarted process
	// would) routes identically.
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user-%d", i)
		if splitToCanary(key, 0.2) != splitToCanary(key, 0.2) {
			t.Fatalf("key %q routed differently on re-evaluation", key)
		}
	}
	// Golden assignments pin the hash itself: if the mixing ever
	// changes, previously-stable keys would silently switch arms across
	// a deploy — exactly what determinism is supposed to prevent.
	golden := map[string]bool{
		"user-0":  splitToCanary("user-0", 0.2),
		"user-1":  splitToCanary("user-1", 0.2),
		"user-42": splitToCanary("user-42", 0.2),
	}
	// Monotone in fraction: a key in the canary at fraction f stays in
	// it at any f' > f.
	for key, in := range golden {
		if in && !splitToCanary(key, 0.9) {
			t.Fatalf("key %q left the canary when the fraction grew", key)
		}
		if !in && splitToCanary(key, 0.01) {
			t.Fatalf("key %q entered the canary when the fraction shrank", key)
		}
	}
}

// ---- registry pin/quarantine policy ----

func TestRegistryPinQuarantinePolicy(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "credit@v1.json", testModel(2, 3))
	writeModelFile(t, dir, "credit@v2.json", testModel(3, 3))
	writeModelFile(t, dir, "credit@v3.json", testModel(4, 3))
	reg := NewRegistry(dir)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}

	if e, _ := reg.Get("credit"); e.Version != 3 {
		t.Fatalf("unpinned Get = v%d, want newest v3", e.Version)
	}
	reg.Pin("credit", 1)
	if e, _ := reg.Get("credit"); e.Version != 1 {
		t.Fatalf("pinned Get = v%d, want v1", e.Version)
	}
	reg.Quarantine("credit", 3)
	if e, ok := reg.NewestEligible("credit"); !ok || e.Version != 2 {
		t.Fatalf("NewestEligible = v%d, want v2 (v3 quarantined)", e.Version)
	}
	reg.Unpin("credit")
	if e, _ := reg.Get("credit"); e.Version != 2 {
		t.Fatalf("unpinned Get with v3 quarantined = v%d, want v2", e.Version)
	}
	// All versions quarantined: Get degrades to newest rather than 404.
	reg.Quarantine("credit", 1)
	reg.Quarantine("credit", 2)
	if e, ok := reg.Get("credit"); !ok || e.Version != 3 {
		t.Fatalf("fully quarantined Get = %v, want newest v3", e)
	}
	if _, ok := reg.NewestEligible("credit"); ok {
		t.Fatal("NewestEligible returned a fully quarantined model")
	}
	// A pin to a version that vanished falls back instead of 404ing.
	reg.Pin("credit", 9)
	if _, ok := reg.Get("credit"); !ok {
		t.Fatal("Get with dangling pin returned not-found")
	}
}

// After a rollback (stable pinned, newer version quarantined), Get must
// keep returning the stable entry even when the quarantined version's
// file is still on disk and re-synced via server.Syncer — the
// satellite regression test.
func TestRegistryGetStableAfterRollbackSurvivesSync(t *testing.T) {
	// Origin serves credit v1 + v2.
	originDir := t.TempDir()
	writeModelFile(t, originDir, "credit@v1.json", testModel(2, 3))
	writeModelFile(t, originDir, "credit@v2.json", testModel(3, 3))
	origin, err := New(Config{ModelDir: originDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin.Handler())
	defer ts.Close()

	// Replica syncs both versions, then the guard rolls v2 back.
	replicaDir := t.TempDir()
	sy := newSyncer(ts, replicaDir)
	if _, _, err := sy.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(replicaDir)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	reg.Pin("credit", 1)
	reg.Quarantine("credit", 2)
	if e, _ := reg.Get("credit"); e.Version != 1 {
		t.Fatalf("after rollback Get = v%d, want stable v1", e.Version)
	}

	// Delete the quarantined file locally and re-sync: the Syncer
	// re-installs it from the origin, and a hot reload picks it up.
	if err := os.Remove(ProfilePathTestHelper(replicaDir, "credit@v2.json")); err != nil {
		t.Fatal(err)
	}
	if synced, _, err := sy.SyncOnce(context.Background()); err != nil || synced != 1 {
		t.Fatalf("re-sync: synced=%d err=%v, want 1 file restored", synced, err)
	}
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.GetVersion("credit", 2); !ok {
		t.Fatal("re-synced v2 did not reload")
	}
	if e, _ := reg.Get("credit"); e.Version != 1 {
		t.Fatalf("after re-sync Get = v%d; quarantine must survive reload", e.Version)
	}
	if !reg.Quarantined("credit", 2) {
		t.Fatal("quarantine flag lost across reload")
	}
	// And the rollout guard never re-adopts it as a canary either.
	if e, ok := reg.NewestEligible("credit"); !ok || e.Version != 1 {
		t.Fatalf("NewestEligible after re-sync = v%d, want v1", e.Version)
	}
}

// ProfilePathTestHelper joins dir and file (kept out of the production
// namespace; filepath.Join via ProfilePath would mangle the extension).
func ProfilePathTestHelper(dir, file string) string {
	return dir + string(os.PathSeparator) + file
}

// ---- rollout state machine over live HTTP ----

// manualClock is a mutex-guarded fake time source for deterministic
// window tests.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Unix(1700000000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// scatterModel is a deliberately unfair transform: steep one-hot
// memberships over prototypes at the corners of a huge cube quantize
// the input space, so near-identical individuals routinely land on
// distant representations. The live yNN estimator should score it well
// below a smooth model.
func scatterModel(n int) *ifair.Model {
	bits := n
	if bits > 6 {
		bits = 6
	}
	k := 1 << bits
	protos := mat.NewDense(k, n)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			sign := 1.0
			if (i>>(j%bits))&1 == 1 {
				sign = -1
			}
			protos.Set(i, j, sign*30)
		}
	}
	alpha := make([]float64, n)
	for j := range alpha {
		alpha[j] = 25
	}
	return &ifair.Model{Prototypes: protos, Alpha: alpha, P: 2, Kernel: ifair.ExpKernel, Loss: 0.9}
}

// writeProfileFile builds and saves a drift profile for seeded standard
// normal data.
func writeProfileFile(t *testing.T, dir, name string, rows, dims int, seed int64) *drift.Profile {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(rows, dims)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	p := drift.NewProfile(x, 0, 256, seed)
	if err := drift.SaveProfile(ProfilePath(dir, name), p); err != nil {
		t.Fatal(err)
	}
	return p
}

// rolloutHarness bundles a rollout-enabled test server with a manual
// clock and request pumps.
type rolloutHarness struct {
	t    *testing.T
	s    *Server
	ts   *httptest.Server
	clk  *manualClock
	dir  string
	dims int
}

func newRolloutHarness(t *testing.T, rc RolloutConfig, withProfile bool) *rolloutHarness {
	return newRolloutHarnessDims(t, rc, withProfile, 3)
}

func newRolloutHarnessDims(t *testing.T, rc RolloutConfig, withProfile bool, dims int) *rolloutHarness {
	t.Helper()
	dir := t.TempDir()
	writeModelFile(t, dir, "credit@v1.json", testModel(2, dims))
	if withProfile {
		writeProfileFile(t, dir, "credit", 2000, dims, 5)
	}
	s, err := New(Config{ModelDir: dir, Rollout: &rc})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	clk := newManualClock()
	s.Rollouts().now = clk.Now
	return &rolloutHarness{t: t, s: s, ts: ts, clk: clk, dir: dir, dims: dims}
}

// pump drives n single-row transforms with distinct canary keys and
// seeded in-distribution rows, returning HTTP status counts.
func (h *rolloutHarness) pump(n int, keyOffset int, rowSeed int64, shift float64) map[int]int {
	h.t.Helper()
	rng := rand.New(rand.NewSource(rowSeed))
	statuses := make(map[int]int)
	for i := 0; i < n; i++ {
		row := make([]float64, h.dims)
		for j := range row {
			row[j] = rng.NormFloat64() + shift
		}
		status := h.post(fmt.Sprintf("key-%d", keyOffset+i), row)
		statuses[status]++
	}
	return statuses
}

func (h *rolloutHarness) post(key string, row []float64) int {
	h.t.Helper()
	status, _ := postJSONWithHeader(h.t, h.ts.URL+"/v1/models/credit/transform",
		map[string]any{"rows": [][]float64{row}}, CanaryKeyHeader, key)
	return status
}

func (h *rolloutHarness) rollout() *Rollout {
	ro := h.s.Rollouts().For("credit")
	if ro == nil {
		h.t.Fatal("rollout not created")
	}
	return ro
}

func (h *rolloutHarness) tick() { h.s.Rollouts().TickAll() }

func assertNo5xx(t *testing.T, statuses map[int]int) {
	t.Helper()
	for code, n := range statuses {
		if code >= 500 {
			t.Fatalf("%d responses with status %d; rollback must be invisible to clients", n, code)
		}
	}
}

func TestRolloutPromotesHealthyCanary(t *testing.T) {
	h := newRolloutHarness(t, RolloutConfig{
		Fraction:    0.3,
		Window:      10 * time.Second,
		MinRequests: 30,
	}, true)

	// Warm-up traffic on v1, then a healthy v2 lands on disk.
	h.pump(50, 0, 1, 0)
	if st := h.rollout().Status(); st.Stable != 1 || st.Canary != 0 {
		t.Fatalf("initial state %+v", st)
	}
	writeModelFile(t, h.dir, "credit@v2.json", testModel(2, 3))
	if _, _, err := h.s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}
	h.tick()
	st := h.rollout().Status()
	if st.Canary != 2 {
		t.Fatalf("canary not adopted: %+v", st)
	}
	// The stable pin keeps default traffic on v1 during the window.
	if e, _ := h.s.Registry().Get("credit"); e.Version != 1 {
		t.Fatalf("Get during canary window = v%d, want pinned v1", e.Version)
	}

	// Enough traffic that the canary arm clears MinRequests, then let
	// the window expire: promote.
	statuses := h.pump(300, 1000, 2, 0)
	assertNo5xx(t, statuses)
	st = h.rollout().Status()
	if st.CanaryRequests < 30 {
		t.Fatalf("canary arm saw %d requests of 300 at 30%%; split broken?", st.CanaryRequests)
	}
	h.clk.Advance(11 * time.Second)
	h.tick()
	st = h.rollout().Status()
	if st.Stable != 2 || st.Canary != 0 || st.Promotions != 1 {
		t.Fatalf("canary not promoted: %+v", st)
	}
	if e, _ := h.s.Registry().Get("credit"); e.Version != 2 {
		t.Fatalf("Get after promote = v%d, want v2", e.Version)
	}
}

func TestRolloutRollsBackErrorRateBreach(t *testing.T) {
	h := newRolloutHarness(t, RolloutConfig{
		Fraction:    0.3,
		Window:      10 * time.Second,
		MinRequests: 20,
	}, false)

	// Materialise the rollout while only v1 exists so the stable pin
	// lands on v1 — new versions must enter through the canary window.
	if st := h.rollout().Status(); st.Stable != 1 {
		t.Fatalf("initial stable %+v", st)
	}
	// The canary expects 4 attributes: every canary-arm request is a
	// 400, every stable-arm request succeeds.
	writeModelFile(t, h.dir, "credit@v2.json", testModel(2, 4))
	if _, _, err := h.s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}
	h.tick()
	if st := h.rollout().Status(); st.Canary != 2 {
		t.Fatalf("canary not adopted: %+v", st)
	}
	statuses := h.pump(200, 0, 3, 0)
	assertNo5xx(t, statuses)
	if statuses[http.StatusBadRequest] == 0 {
		t.Fatal("no canary-arm failures observed; test premise broken")
	}
	// The breach is judged mid-window — no clock advance needed.
	h.tick()
	st := h.rollout().Status()
	if st.Rollbacks != 1 || st.Canary != 0 || st.Stable != 1 {
		t.Fatalf("canary not rolled back: %+v", st)
	}
	if !h.s.Registry().Quarantined("credit", 2) {
		t.Fatal("rolled-back version not quarantined")
	}
	// Post-rollback, all traffic serves stable and succeeds.
	statuses = h.pump(100, 5000, 4, 0)
	if statuses[http.StatusOK] != 100 {
		t.Fatalf("post-rollback statuses %v, want all 200", statuses)
	}
	// A later reload cannot resurrect the quarantined version.
	if _, _, err := h.s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}
	h.tick()
	if st := h.rollout().Status(); st.Canary != 0 {
		t.Fatalf("quarantined version re-adopted: %+v", st)
	}
}

func TestRolloutRollsBackConsistencyRegression(t *testing.T) {
	// Six attributes: the scatter model's 64 corner cells slice the
	// space finely enough that nearest neighbours routinely land on
	// distant corners, while the smooth stable transform keeps them
	// close — a wide, stable consistency gap.
	h := newRolloutHarnessDims(t, RolloutConfig{
		Fraction:    0.5,
		Window:      10 * time.Second,
		MinRequests: 40,
	}, true, 6)

	h.pump(20, 0, 1, 0)
	writeModelFile(t, h.dir, "credit@v2.json", scatterModel(6))
	if _, _, err := h.s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}
	h.tick()
	if st := h.rollout().Status(); st.Canary != 2 {
		t.Fatalf("canary not adopted: %+v", st)
	}
	statuses := h.pump(400, 100, 6, 0)
	assertNo5xx(t, statuses)
	st := h.rollout().Status()
	t.Logf("consistency: stable %.4f (n≈%d) canary %.4f (n≈%d)",
		st.StableConsistency, st.StableRequests, st.CanaryConsistency, st.CanaryRequests)
	h.tick()
	st = h.rollout().Status()
	if st.Rollbacks != 1 || st.Canary != 0 {
		t.Fatalf("scatter canary not rolled back on consistency: %+v", st)
	}
	if !h.s.Registry().Quarantined("credit", 2) {
		t.Fatal("rolled-back version not quarantined")
	}
}

func TestRolloutDriftAlarmRollsBackMidWindow(t *testing.T) {
	h := newRolloutHarness(t, RolloutConfig{
		Fraction:    0.3,
		Window:      30 * time.Second,
		MinRequests: 50,
		DriftPSI:    0.25,
	}, true)

	// Pin stable to v1 before the new version appears.
	if st := h.rollout().Status(); st.Stable != 1 {
		t.Fatalf("initial stable %+v", st)
	}
	writeModelFile(t, h.dir, "credit@v2.json", testModel(2, 3))
	if _, _, err := h.s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}
	h.tick()
	if st := h.rollout().Status(); st.Canary != 2 {
		t.Fatalf("canary not adopted: %+v", st)
	}
	// Mid-window the live distribution shifts hard: the window can no
	// longer judge the canary, so the guard keeps the proven stable.
	statuses := h.pump(300, 0, 7, 2.5)
	assertNo5xx(t, statuses)
	h.tick()
	st := h.rollout().Status()
	if st.Rollbacks != 1 || st.Canary != 0 || st.Stable != 1 {
		t.Fatalf("drift alarm did not roll back: %+v (PSI %.3f)", st, st.DriftPSI)
	}
}

func TestRolloutDriftRecommendsRefit(t *testing.T) {
	h := newRolloutHarness(t, RolloutConfig{
		MinRequests: 50,
	}, true)
	// No canary anywhere; drifted traffic latches the refit signal
	// instead of rolling anything back.
	h.pump(200, 0, 8, 2.5)
	h.tick()
	st := h.rollout().Status()
	if !st.RefitRecommended {
		t.Fatalf("refit not recommended under drift: %+v", st)
	}
	if st.Rollbacks != 0 || st.Stable != 1 {
		t.Fatalf("refit signal must not change serving: %+v", st)
	}
}

func TestRolloutExplicitVersionBypassesSplit(t *testing.T) {
	h := newRolloutHarness(t, RolloutConfig{Fraction: 0.3}, false)
	writeModelFile(t, h.dir, "credit@v2.json", testModel(3, 3))
	if _, _, err := h.s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}
	h.tick()
	// ?version pins the exact version regardless of arm assignment, and
	// is not recorded against either arm.
	before := h.rollout().Status()
	resp, body := postJSON(t, h.ts.URL+"/v1/models/credit/transform?version=2",
		map[string]any{"rows": [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit version status %d: %s", resp.StatusCode, body)
	}
	after := h.rollout().Status()
	if after.StableRequests != before.StableRequests || after.CanaryRequests != before.CanaryRequests {
		t.Fatal("explicit-version request was recorded against a rollout arm")
	}
}

// TransformKeyed must route by its explicit key — landing the same arm
// as the server-side split — and report the version that served it.
func TestClientTransformKeyed(t *testing.T) {
	h := newRolloutHarness(t, RolloutConfig{Fraction: 0.3}, false)
	if st := h.rollout().Status(); st.Stable != 1 {
		t.Fatalf("initial stable %+v", st)
	}
	writeModelFile(t, h.dir, "credit@v2.json", testModel(3, 3))
	if _, _, err := h.s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}
	h.tick()
	if st := h.rollout().Status(); st.Canary != 2 {
		t.Fatalf("canary not adopted: %+v", st)
	}

	var stableKey, canaryKey string
	for i := 0; stableKey == "" || canaryKey == ""; i++ {
		key := fmt.Sprintf("client-key-%d", i)
		if splitToCanary(key, 0.3) {
			canaryKey = key
		} else {
			stableKey = key
		}
	}
	c := &Client{BaseURL: h.ts.URL}
	row := []float64{1, 2, 3}
	for i := 0; i < 3; i++ { // key-sticky across repeats
		if _, v, err := c.TransformKeyed(context.Background(), "credit", stableKey, row); err != nil || v != 1 {
			t.Fatalf("stable key served v%d (err %v), want v1", v, err)
		}
		if _, v, err := c.TransformKeyed(context.Background(), "credit", canaryKey, row); err != nil || v != 2 {
			t.Fatalf("canary key served v%d (err %v), want v2", v, err)
		}
	}
}

func TestRolloutMetricsExposed(t *testing.T) {
	h := newRolloutHarness(t, RolloutConfig{Fraction: 0.3}, true)
	h.pump(10, 0, 9, 0)
	h.tick()
	resp, body := getBody(t, h.ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		`rollout_stable_version{model="credit"}`,
		`rollout_requests{arm="stable",model="credit"}`,
		`rollout_consistency{arm="canary",model="credit"}`,
		`rollout_drift_psi_max{model="credit"}`,
		`rollout_latency_seconds`,
		`rollout_refit_recommended{model="credit"}`,
	} {
		if !containsLine(string(body), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func containsLine(body, want string) bool {
	return strings.Contains(body, want)
}
