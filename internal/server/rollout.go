package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/drift"
	"repro/internal/mat"
)

// RolloutConfig tunes the closed-loop canary guard. The zero value of
// every field selects a sensible default (see fillDefaults); a zero
// RolloutConfig is therefore a valid "enable with defaults".
type RolloutConfig struct {
	// Fraction of traffic routed to the canary arm (default 0.1). The
	// split is a pure function of the request key, so the same caller
	// lands on the same arm across requests and process restarts.
	Fraction float64
	// Window is the canary observation window: a canary that stays
	// healthy this long (and reaches MinRequests) is promoted (default
	// 1m).
	Window time.Duration
	// MinRequests is the minimum canary-arm request count before any
	// verdict — promote or rollback — is reached (default 200).
	MinRequests int64
	// DriftPSI is the per-feature population-stability alarm threshold
	// (default 0.25, the conventional "significant shift" band). During
	// a canary window an alarm forces rollback — a drifting window
	// cannot fairly judge a canary; outside one it latches the
	// refit-recommended signal. The effective threshold adds headroom
	// for the window's small-sample PSI noise floor (see
	// drift.Report.NoiseFloor), so a lightly-sampled window cannot
	// alarm on multinomial sampling noise alone.
	DriftPSI float64
	// TickInterval is the guard-loop period (default 1s).
	TickInterval time.Duration
	// Logf receives guard-verdict lines (canary opened, promoted,
	// rolled back + reason, drift alarms). nil discards them — metrics
	// still record everything, but an operator tailing the server log
	// sees no rollout activity.
	Logf func(format string, args ...any)
}

const (
	// maxErrorRate rolls the canary back when its error rate exceeds it.
	maxErrorRate = 0.05
	// consistencyTolerance rolls the canary back when its live yNN
	// consistency falls below the stable arm's by more than this plus
	// two standard errors of the estimated gap. The standard-error term
	// keeps estimator noise from reading as a regression when both arms
	// are still lightly sampled.
	consistencyTolerance = 0.05
	// sampleEvery runs every Nth successful request per arm through the
	// live consistency estimator.
	sampleEvery = 4
	// rolloutSeed fixes reservoir sampling and consistency scale pairs so
	// a replayed traffic stream yields identical verdicts.
	rolloutSeed = 1
)

func (c *RolloutConfig) fillDefaults() {
	if c.Fraction <= 0 || c.Fraction > 1 {
		c.Fraction = 0.1
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.MinRequests <= 0 {
		c.MinRequests = 200
	}
	if c.DriftPSI <= 0 {
		c.DriftPSI = 0.25
	}
	if c.TickInterval <= 0 {
		c.TickInterval = time.Second
	}
}

// splitToCanary deterministically assigns a request key to the canary
// arm with the given probability: FNV-1a over the key, a splitmix64
// finalizer to spread low-entropy keys, and the top 53 bits mapped to
// [0, 1). A pure function of (key, fraction) — the same key routes the
// same way in every process, which is what makes canary comparisons
// paired rather than confounded by caller mix.
func splitToCanary(key string, fraction float64) bool {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < fraction
}

// armState is one side (stable or canary) of a rollout: request
// counters and the live consistency estimator for that model version.
// All fields are guarded by the owning Rollout's mutex.
type armState struct {
	version  int
	requests int64
	errors   int64
	cons     *drift.Consistency // nil when no profile is available
}

func (a *armState) errorRate() float64 {
	if a.requests == 0 {
		return 0
	}
	return float64(a.errors) / float64(a.requests)
}

func (a *armState) consistency() (float64, int64) {
	if a.cons == nil {
		return math.NaN(), 0
	}
	return a.cons.Value()
}

func (a *armState) consistencyMoments() (mean, variance float64, n int64) {
	if a.cons == nil {
		return math.NaN(), math.NaN(), 0
	}
	return a.cons.Moments()
}

// RolloutStatus is a point-in-time summary of one model's rollout
// state, consumed by gauges, logs and tests.
type RolloutStatus struct {
	Stable            int
	Canary            int // 0 when no canary window is open
	StableRequests    int64
	StableErrors      int64
	CanaryRequests    int64
	CanaryErrors      int64
	StableConsistency float64 // NaN with no samples
	CanaryConsistency float64 // NaN with no samples
	DriftPSI          float64
	RefitRecommended  bool
	Promotions        int64
	Rollbacks         int64
}

// Rollout is the per-model canary state machine. It owns verdicts; the
// Registry owns the pin/quarantine mechanics the verdicts act through.
//
// Lifecycle: the stable version is pinned at creation, so a newer
// version appearing on disk (hot reload, Syncer) is NOT served by
// default — Tick adopts it as a canary, routes Fraction of traffic to
// it, and after the observation window either promotes it (re-pin) or
// rolls it back (quarantine, keep the stable pin). A quarantined
// version can never be re-adopted in this process.
type Rollout struct {
	name    string
	cfg     RolloutConfig
	reg     *Registry
	logf    func(format string, args ...any)
	now     func() time.Time
	refX    *mat.Dense     // profile reference inputs (nil without profile)
	monitor *drift.Monitor // live input-drift monitor (nil without profile)

	latStable *Histogram
	latCanary *Histogram

	mu          sync.Mutex
	stable      *armState
	canary      *armState // nil when no canary window is open
	canaryStart time.Time
	promotions  int64
	rollbacks   int64
	refitRec    bool
	lastPSI     float64
	lastFloor   float64 // small-sample PSI noise floor at the last tick
}

// driftFloorHeadroom scales the drift monitor's small-sample noise
// floor into alarm headroom. The floor is the EXPECTED max-feature PSI
// under no drift ((bins−1)/window); the max over many features sits a
// small multiple above its per-feature expectation, so requiring the
// alarm to clear threshold + 3×floor suppresses pure sampling noise
// while adding only ~0.04 to the threshold once a 2048-value window has
// filled.
const driftFloorHeadroom = 3

// newRollout builds the state machine for one model, pinning the
// current serving version as stable. profile may be nil (drift and
// consistency checks disabled; error-rate and window still apply).
func newRollout(name string, cfg RolloutConfig, reg *Registry, metrics *Metrics,
	profile *drift.Profile, logf func(string, ...any), now func() time.Time) (*Rollout, error) {
	entry, ok := reg.Get(name)
	if !ok {
		return nil, fmt.Errorf("rollout: model %q not loaded", name)
	}
	ro := &Rollout{
		name: name,
		cfg:  cfg,
		reg:  reg,
		logf: logf,
		now:  now,
	}
	if profile != nil {
		if profile.Baseline.Dims == entry.Model.Dims() {
			ro.refX = profile.ReferenceMatrix()
			ro.monitor = drift.NewMonitor(profile.Baseline, drift.DefaultWindow, rolloutSeed)
		} else {
			logf("rollout %s: profile dims %d != model dims %d; drift/consistency checks disabled",
				name, profile.Baseline.Dims, entry.Model.Dims())
		}
	}
	ro.stable = ro.newArm(entry)
	reg.Pin(name, entry.Version)
	if metrics != nil {
		model := "model=" + name
		ro.latStable = metrics.Histogram("rollout_latency_seconds", latencyBuckets, model, "arm=stable")
		ro.latCanary = metrics.Histogram("rollout_latency_seconds", latencyBuckets, model, "arm=canary")
		metrics.GaugeFunc("rollout_stable_version", func() float64 { return float64(ro.Status().Stable) }, model)
		metrics.GaugeFunc("rollout_canary_version", func() float64 { return float64(ro.Status().Canary) }, model)
		metrics.GaugeFunc("rollout_requests", func() float64 { return float64(ro.Status().StableRequests) }, model, "arm=stable")
		metrics.GaugeFunc("rollout_requests", func() float64 { return float64(ro.Status().CanaryRequests) }, model, "arm=canary")
		metrics.GaugeFunc("rollout_errors", func() float64 { return float64(ro.Status().StableErrors) }, model, "arm=stable")
		metrics.GaugeFunc("rollout_errors", func() float64 { return float64(ro.Status().CanaryErrors) }, model, "arm=canary")
		metrics.GaugeFunc("rollout_consistency", func() float64 { return zeroNaN(ro.Status().StableConsistency) }, model, "arm=stable")
		metrics.GaugeFunc("rollout_consistency", func() float64 { return zeroNaN(ro.Status().CanaryConsistency) }, model, "arm=canary")
		metrics.GaugeFunc("rollout_drift_psi_max", func() float64 { return ro.Status().DriftPSI }, model)
		metrics.GaugeFunc("rollout_promotions", func() float64 { return float64(ro.Status().Promotions) }, model)
		metrics.GaugeFunc("rollout_rollbacks", func() float64 { return float64(ro.Status().Rollbacks) }, model)
		metrics.GaugeFunc("rollout_refit_recommended", func() float64 {
			if ro.Status().RefitRecommended {
				return 1
			}
			return 0
		}, model)
	}
	return ro, nil
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// newArm builds the per-version state for an entry, including its
// consistency estimator: the version's own transform of the shared
// reference set, so arm scores are directly comparable.
func (ro *Rollout) newArm(entry *Entry) *armState {
	arm := &armState{version: entry.Version}
	if ro.refX == nil {
		return arm
	}
	kern, err := entry.Kernel()
	if err != nil {
		ro.logf("rollout %s: v%d kernel: %v; consistency check disabled for this arm", ro.name, entry.Version, err)
		return arm
	}
	m, n := ro.refX.Dims()
	refT := mat.NewDense(m, n)
	if err := kern.TransformInto(refT, ro.refX, 1); err != nil {
		ro.logf("rollout %s: v%d reference transform: %v; consistency check disabled for this arm", ro.name, entry.Version, err)
		return arm
	}
	cons, err := drift.NewConsistency(ro.refX, refT, drift.DefaultNeighbors, rolloutSeed^int64(entry.Version))
	if err != nil {
		ro.logf("rollout %s: v%d consistency estimator: %v", ro.name, entry.Version, err)
		return arm
	}
	arm.cons = cons
	return arm
}

// Route picks the serving entry for a request key: the canary version
// for the key's share of traffic while a canary window is open, the
// stable version otherwise. Falls back across arms if a version has
// vanished from the registry mid-window.
func (ro *Rollout) Route(key string) (*Entry, bool) {
	ro.mu.Lock()
	stable, canary := ro.stable.version, 0
	if ro.canary != nil {
		canary = ro.canary.version
	}
	ro.mu.Unlock()
	if canary != 0 && splitToCanary(key, ro.cfg.Fraction) {
		if e, ok := ro.reg.GetVersion(ro.name, canary); ok {
			return e, true
		}
	}
	if e, ok := ro.reg.GetVersion(ro.name, stable); ok {
		return e, true
	}
	return ro.reg.Get(ro.name)
}

// Record folds one served request into the rollout's live statistics:
// per-arm counters and latency, input drift (the input distribution is
// arm-independent, so one shared monitor), and — for every
// sampleEvery-th successful request on an arm — the live consistency
// estimate of (x, xt). xt may be nil on errors.
func (ro *Rollout) Record(version int, latency time.Duration, isErr bool, x, xt []float64) {
	if ro.monitor != nil && x != nil {
		ro.monitor.Observe(x)
	}
	ro.mu.Lock()
	arm := ro.armFor(version)
	if arm == nil {
		ro.mu.Unlock()
		return
	}
	arm.requests++
	if isErr {
		arm.errors++
	}
	sample := !isErr && xt != nil && arm.cons != nil && arm.requests%sampleEvery == 0
	cons := arm.cons
	hist := ro.latStable
	if ro.canary != nil && arm == ro.canary {
		hist = ro.latCanary
	}
	ro.mu.Unlock()
	if hist != nil {
		hist.Observe(latency.Seconds())
	}
	// The estimator has its own lock; the kd-tree probe runs outside
	// ro.mu so recording never serializes the whole rollout.
	if sample {
		cons.Observe(x, xt)
	}
}

// armFor maps a served version to its arm (nil for versions the rollout
// is not tracking, e.g. explicit ?version probes). Caller holds ro.mu.
func (ro *Rollout) armFor(version int) *armState {
	if ro.canary != nil && version == ro.canary.version {
		return ro.canary
	}
	if version == ro.stable.version {
		return ro.stable
	}
	return nil
}

// Tick advances the state machine one step: adopt a new canary if an
// eligible newer version appeared, evaluate an open canary window
// (rollback on breach, promote on healthy expiry), and maintain the
// refit-recommended drift signal. Called by the guard loop; exported
// for deterministic tests.
func (ro *Rollout) Tick() {
	now := ro.now()
	ro.mu.Lock()
	defer ro.mu.Unlock()

	if ro.monitor != nil {
		snap := ro.monitor.Snapshot()
		ro.lastPSI, ro.lastFloor = snap.MaxPSI, snap.NoiseFloor
	}

	if ro.canary == nil {
		// Outside a canary window a drift alarm cannot roll anything
		// back — it recommends a (warm-start) refit instead; the signal
		// latches until a new version is promoted.
		if ro.monitor != nil && !ro.refitRec &&
			ro.monitor.Count() >= ro.cfg.MinRequests && ro.lastPSI > ro.driftGateLocked() {
			ro.refitRec = true
			ro.logf("rollout %s: drift alarm (max PSI %.3f > %.3f) — warm-start refit recommended",
				ro.name, ro.lastPSI, ro.driftGateLocked())
		}
		ro.adoptCanaryLocked(now)
		return
	}

	// An open canary window: rollback checks first (any may fire before
	// the window closes), then promotion.
	if reason := ro.breachLocked(); reason != "" {
		ro.rollbackLocked(reason)
		return
	}
	if now.Sub(ro.canaryStart) >= ro.cfg.Window && ro.canary.requests >= ro.cfg.MinRequests {
		ro.promoteLocked()
	}
}

// adoptCanaryLocked opens a canary window on the newest eligible
// version newer than stable, if any. Caller holds ro.mu.
func (ro *Rollout) adoptCanaryLocked(now time.Time) {
	e, ok := ro.reg.NewestEligible(ro.name)
	if !ok || e.Version <= ro.stable.version {
		return
	}
	ro.canary = ro.newArm(e)
	ro.canaryStart = now
	// A fresh window compares both arms over the same period: reset the
	// stable arm's running estimate and the drift window.
	ro.stable.requests, ro.stable.errors = 0, 0
	if ro.stable.cons != nil {
		ro.stable.cons.Reset()
	}
	if ro.monitor != nil {
		ro.monitor.Reset()
	}
	ro.logf("rollout %s: canary v%d opened against stable v%d (%.0f%% of traffic)",
		ro.name, e.Version, ro.stable.version, 100*ro.cfg.Fraction)
}

// driftGateLocked is the effective drift-alarm threshold at the last
// tick: the configured PSI threshold plus headroom for the window's
// small-sample noise floor, so a lightly-sampled window cannot alarm on
// pure multinomial sampling noise. Caller holds ro.mu.
func (ro *Rollout) driftGateLocked() float64 {
	return ro.cfg.DriftPSI + driftFloorHeadroom*ro.lastFloor
}

// breachLocked evaluates the rollback conditions for the open canary
// window and returns a human-readable reason, or "" while healthy.
// Caller holds ro.mu.
func (ro *Rollout) breachLocked() string {
	c := ro.canary
	// Error-rate breach: judged as soon as the canary has a meaningful
	// sample, not at window end — a hard-failing canary should not keep
	// failing its share of traffic for a full window.
	if c.requests >= ro.cfg.MinRequests && c.errorRate() > maxErrorRate {
		return fmt.Sprintf("error rate %.3f > %.3f over %d requests", c.errorRate(), maxErrorRate, c.requests)
	}
	// Drift alarm mid-window: the live window no longer matches the
	// baseline, so the canary comparison itself is untrustworthy — the
	// conservative verdict is to keep the proven stable.
	if ro.monitor != nil && ro.monitor.Count() >= ro.cfg.MinRequests && ro.lastPSI > ro.driftGateLocked() {
		return fmt.Sprintf("input drift alarm (max PSI %.3f > %.3f)", ro.lastPSI, ro.driftGateLocked())
	}
	// Consistency regression, once both arms have enough scored samples.
	// The two arms score different (hash-split) request subsets, so their
	// means differ by sampling noise even for identical models; the gap
	// must clear the tolerance plus two standard errors of the estimated
	// difference before it counts as a regression.
	minSamples := ro.cfg.MinRequests / sampleEvery
	if minSamples < 1 {
		minSamples = 1
	}
	cc, cv, cn := c.consistencyMoments()
	sc, sv, sn := ro.stable.consistencyMoments()
	if cn >= minSamples && sn >= minSamples {
		margin := consistencyTolerance + 2*math.Sqrt(cv/float64(cn)+sv/float64(sn))
		if cc < sc-margin {
			return fmt.Sprintf("consistency regression: canary %.4f < stable %.4f − %.3f (n=%d/%d)",
				cc, sc, margin, cn, sn)
		}
	}
	return ""
}

// promoteLocked pins the canary as the new stable. Caller holds ro.mu.
func (ro *Rollout) promoteLocked() {
	old := ro.stable.version
	ro.stable = ro.canary
	ro.canary = nil
	ro.reg.Pin(ro.name, ro.stable.version)
	ro.promotions++
	// A newly promoted model resets the drift story: its training data
	// is (presumably) the recent distribution.
	ro.refitRec = false
	if ro.monitor != nil {
		ro.monitor.Reset()
	}
	ro.logf("rollout %s: canary v%d promoted to stable (was v%d)", ro.name, ro.stable.version, old)
}

// rollbackLocked quarantines the canary version and closes the window;
// the stable pin never moved, so no request was ever failed by the
// rollback itself. Caller holds ro.mu.
func (ro *Rollout) rollbackLocked(reason string) {
	v := ro.canary.version
	ro.canary = nil
	ro.reg.Quarantine(ro.name, v)
	ro.rollbacks++
	ro.logf("rollout %s: canary v%d rolled back and quarantined: %s", ro.name, v, reason)
}

// Status returns a point-in-time snapshot.
func (ro *Rollout) Status() RolloutStatus {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	st := RolloutStatus{
		Stable:           ro.stable.version,
		StableRequests:   ro.stable.requests,
		StableErrors:     ro.stable.errors,
		DriftPSI:         ro.lastPSI,
		RefitRecommended: ro.refitRec,
		Promotions:       ro.promotions,
		Rollbacks:        ro.rollbacks,
	}
	st.StableConsistency, _ = ro.stable.consistency()
	if ro.canary != nil {
		st.Canary = ro.canary.version
		st.CanaryRequests = ro.canary.requests
		st.CanaryErrors = ro.canary.errors
		st.CanaryConsistency, _ = ro.canary.consistency()
	}
	return st
}

// ProfilePath returns where a model's drift profile lives: next to the
// model files, `<name>.profile` (not .json, so the registry scan never
// mistakes it for a model).
func ProfilePath(dir, name string) string {
	return filepath.Join(dir, name+".profile")
}

// RolloutManager owns one Rollout per model name, created lazily when a
// model first takes rollout-routed traffic (or at the first guard
// tick). Safe for concurrent use.
type RolloutManager struct {
	cfg     RolloutConfig
	reg     *Registry
	metrics *Metrics
	dir     string
	logf    func(format string, args ...any)
	now     func() time.Time

	mu     sync.Mutex
	byName map[string]*Rollout
}

// NewRolloutManager builds a manager over the registry; dir is the
// model directory searched for `<name>.profile` files. logf may be nil.
func NewRolloutManager(cfg RolloutConfig, reg *Registry, metrics *Metrics, dir string,
	logf func(format string, args ...any)) *RolloutManager {
	cfg.fillDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &RolloutManager{
		cfg:     cfg,
		reg:     reg,
		metrics: metrics,
		dir:     dir,
		logf:    logf,
		now:     time.Now,
		byName:  make(map[string]*Rollout),
	}
}

// For returns the rollout for a model name, creating it on first use.
// Returns nil when the model is not loaded (the caller then falls back
// to plain registry resolution and its 404).
func (rm *RolloutManager) For(name string) *Rollout {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if ro, ok := rm.byName[name]; ok {
		return ro
	}
	var profile *drift.Profile
	if p, err := drift.LoadProfile(ProfilePath(rm.dir, name)); err == nil {
		profile = p
	} else if !os.IsNotExist(err) {
		rm.logf("rollout %s: profile unreadable: %v (drift/consistency checks disabled)", name, err)
	}
	ro, err := newRollout(name, rm.cfg, rm.reg, rm.metrics, profile, rm.logf, func() time.Time { return rm.now() })
	if err != nil {
		return nil
	}
	rm.byName[name] = ro
	return ro
}

// TickAll advances every model's state machine, instantiating rollouts
// for models that appeared since the last tick (so a freshly synced
// name gets guard coverage before its first request).
func (rm *RolloutManager) TickAll() {
	seen := make(map[string]bool)
	for _, info := range rm.reg.List() {
		if seen[info.Name] {
			continue
		}
		seen[info.Name] = true
		if ro := rm.For(info.Name); ro != nil {
			ro.Tick()
		}
	}
}

// Run is the guard loop: TickAll every TickInterval until ctx ends.
func (rm *RolloutManager) Run(ctx context.Context) {
	t := time.NewTicker(rm.cfg.TickInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rm.TickAll()
		}
	}
}
