package drift

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/stats"
)

// Reservoir is a seeded fixed-capacity uniform sample of a stream
// (Vitter's algorithm R): after n observations each holds a slot with
// probability cap/n. The drift monitor keeps one per feature so PSI is
// computed over a bounded, unbiased window of the live traffic no matter
// how long the server runs.
type Reservoir struct {
	vals []float64
	seen int64
	rng  *rand.Rand
}

// NewReservoir returns a reservoir holding at most capacity values,
// sampling with the given seed.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		panic(fmt.Sprintf("drift: reservoir capacity %d", capacity))
	}
	return &Reservoir{
		vals: make([]float64, 0, capacity),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Add offers one value to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, x)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(cap(r.vals)) {
		r.vals[j] = x
	}
}

// Values returns the current sample (aliased, not copied).
func (r *Reservoir) Values() []float64 { return r.vals }

// Reset empties the reservoir, keeping capacity and RNG state.
func (r *Reservoir) Reset() {
	r.vals = r.vals[:0]
	r.seen = 0
}

// Report is a point-in-time comparison of the live window against the
// baseline.
type Report struct {
	// PSI[j] is the population stability index of feature j's live
	// reservoir against the baseline's expected proportions.
	PSI []float64
	// MaxPSI is the worst per-feature PSI — the alarm signal.
	MaxPSI float64
	// MaxPSIFeature is the feature index attaining MaxPSI (−1 when no
	// data has been observed).
	MaxPSIFeature int
	// MeanShift[j] is |live mean − baseline mean| / baseline σ for
	// feature j (0 when the baseline σ is 0).
	MeanShift []float64
	// MaxMeanShift is the worst per-feature σ-unit mean shift.
	MaxMeanShift float64
	// NoiseFloor is the expected PSI of the worst-binned feature under
	// NO drift at the current window size: sampling a B-bin multinomial
	// N times yields PSI ≈ χ²(B−1)/N in expectation ≈ (B−1)/N, so a
	// small window reads as "drifted" even when the live distribution
	// matches the baseline exactly. Alarms should require MaxPSI to
	// clear the threshold by a multiple of this floor; it decays to
	// ~0.01 by the time a 2048-value reservoir fills.
	NoiseFloor float64
}

// Monitor streams served rows into per-feature Welford moments and
// seeded reservoirs and reports drift against a Baseline. Safe for
// concurrent Observe/Snapshot/Reset.
type Monitor struct {
	base *Baseline

	mu  sync.Mutex
	wf  []stats.Welford
	res []*Reservoir
	n   int64
}

// NewMonitor builds a monitor over base with a per-feature reservoir of
// windowCap values (DefaultWindow when <= 0). The seed fixes reservoir
// eviction choices so a replayed traffic stream yields an identical
// window.
func NewMonitor(base *Baseline, windowCap int, seed int64) *Monitor {
	if err := base.validate(); err != nil {
		panic(err)
	}
	if windowCap <= 0 {
		windowCap = DefaultWindow
	}
	m := &Monitor{
		base: base,
		wf:   make([]stats.Welford, base.Dims),
		res:  make([]*Reservoir, base.Dims),
	}
	for j := range m.res {
		// Give each feature its own deterministic stream: seed ⊕ feature
		// index through a fixed odd multiplier, so reservoirs evolve
		// independently but reproducibly.
		m.res[j] = NewReservoir(windowCap, seed^int64(uint64(j+1)*0x9E3779B97F4A7C15))
	}
	return m
}

// DefaultWindow is the per-feature reservoir capacity used when a
// Monitor is built with windowCap <= 0.
const DefaultWindow = 2048

// Observe folds one served row into the live window. Rows of the wrong
// width are ignored (the serving handler has already rejected them).
func (m *Monitor) Observe(row []float64) {
	if len(row) != m.base.Dims {
		return
	}
	m.mu.Lock()
	m.n++
	for j, v := range row {
		m.wf[j].Add(v)
		m.res[j].Add(v)
	}
	m.mu.Unlock()
}

// Count returns the number of rows observed since the last Reset.
func (m *Monitor) Count() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Snapshot compares the live window against the baseline. A monitor
// that has observed nothing reports zero drift (MaxPSIFeature −1): no
// evidence is not evidence of drift.
func (m *Monitor) Snapshot() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := Report{
		PSI:           make([]float64, m.base.Dims),
		MeanShift:     make([]float64, m.base.Dims),
		MaxPSIFeature: -1,
	}
	if m.n == 0 {
		return rep
	}
	for j := 0; j < m.base.Dims; j++ {
		vals := m.res[j].Values()
		live := stats.Proportions(vals, m.base.Edges[j])
		rep.PSI[j] = stats.PSI(m.base.Expect[j], live)
		if rep.PSI[j] > rep.MaxPSI || rep.MaxPSIFeature == -1 {
			rep.MaxPSI, rep.MaxPSIFeature = rep.PSI[j], j
		}
		if n := len(vals); n > 0 {
			if f := float64(len(m.base.Expect[j])-1) / float64(n); f > rep.NoiseFloor {
				rep.NoiseFloor = f
			}
		}
		if sd := m.base.Std[j]; sd > 0 {
			rep.MeanShift[j] = math.Abs(m.wf[j].Mean()-m.base.Mean[j]) / sd
		}
		if rep.MeanShift[j] > rep.MaxMeanShift {
			rep.MaxMeanShift = rep.MeanShift[j]
		}
	}
	return rep
}

// Reset clears the live window (moments and reservoirs) so a new
// observation period starts clean; reservoir RNG state carries over, so
// a monitor reused across windows is still deterministic end to end.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n = 0
	for j := range m.wf {
		m.wf[j] = stats.Welford{}
		m.res[j].Reset()
	}
}
