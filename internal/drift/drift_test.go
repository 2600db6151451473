package drift

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/mat"
)

func gaussData(seed int64, m, n int, shift float64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(m, n)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64() + shift
	}
	return x
}

func TestMonitorNoDriftOnSameDistribution(t *testing.T) {
	train := gaussData(1, 5000, 4, 0)
	base := NewBaseline(train, 0)
	mon := NewMonitor(base, 0, 99)
	live := gaussData(2, 3000, 4, 0)
	for i := 0; i < live.Rows(); i++ {
		mon.Observe(live.Row(i))
	}
	rep := mon.Snapshot()
	if mon.Count() != 3000 {
		t.Fatalf("count %d, want 3000", mon.Count())
	}
	if rep.MaxPSI > 0.1 {
		t.Fatalf("same-distribution MaxPSI %g, want < 0.1 (PSI=%v)", rep.MaxPSI, rep.PSI)
	}
	if rep.MaxMeanShift > 0.2 {
		t.Fatalf("same-distribution MaxMeanShift %g, want < 0.2", rep.MaxMeanShift)
	}
}

func TestMonitorAlarmsOnShift(t *testing.T) {
	train := gaussData(1, 5000, 4, 0)
	base := NewBaseline(train, 0)
	mon := NewMonitor(base, 0, 99)
	live := gaussData(2, 3000, 4, 1.5) // 1.5σ mean shift on every feature
	for i := 0; i < live.Rows(); i++ {
		mon.Observe(live.Row(i))
	}
	rep := mon.Snapshot()
	if rep.MaxPSI < 0.25 {
		t.Fatalf("1.5σ shift MaxPSI %g, want > 0.25", rep.MaxPSI)
	}
	if rep.MaxMeanShift < 1.0 {
		t.Fatalf("1.5σ shift MaxMeanShift %g, want > 1", rep.MaxMeanShift)
	}
	if rep.MaxPSIFeature < 0 || rep.MaxPSIFeature >= 4 {
		t.Fatalf("MaxPSIFeature %d out of range", rep.MaxPSIFeature)
	}
	mon.Reset()
	rep = mon.Snapshot()
	if mon.Count() != 0 || rep.MaxPSI != 0 || rep.MaxPSIFeature != -1 {
		t.Fatalf("after Reset: %+v", rep)
	}
}

// The noise floor is (bins−1)/window for the worst-binned feature: it
// must dominate the measured same-distribution PSI at small windows
// (so alarms gated on it cannot fire on sampling noise) and decay as
// the window grows.
func TestMonitorNoiseFloor(t *testing.T) {
	train := gaussData(1, 5000, 4, 0)
	base := NewBaseline(train, 0)
	live := gaussData(2, 3000, 4, 0)

	mon := NewMonitor(base, 0, 99)
	var prev float64 = math.Inf(1)
	for _, n := range []int{20, 200, 1000} {
		mon.Reset()
		for i := 0; i < n; i++ {
			mon.Observe(live.Row(i))
		}
		rep := mon.Snapshot()
		bins := 0
		for _, e := range base.Expect {
			if len(e) > bins {
				bins = len(e)
			}
		}
		if want := float64(bins-1) / float64(n); rep.NoiseFloor != want {
			t.Fatalf("n=%d: NoiseFloor %g, want %g", n, rep.NoiseFloor, want)
		}
		if rep.NoiseFloor >= prev {
			t.Fatalf("n=%d: NoiseFloor %g did not shrink from %g", n, rep.NoiseFloor, prev)
		}
		prev = rep.NoiseFloor
		// At window sizes the guard actually evaluates (its MinRequests
		// gate defaults to 200), in-distribution traffic must stay
		// under the default alarm gate of 0.25 + 3×floor.
		if n >= 200 && rep.MaxPSI > 0.25+3*rep.NoiseFloor {
			t.Fatalf("n=%d: same-distribution MaxPSI %g above gate %g", n, rep.MaxPSI, 0.25+3*rep.NoiseFloor)
		}
	}
}

func TestMonitorEmptyReportsZero(t *testing.T) {
	base := NewBaseline(gaussData(1, 100, 2, 0), 0)
	mon := NewMonitor(base, 0, 1)
	rep := mon.Snapshot()
	if rep.MaxPSI != 0 || mon.Count() != 0 {
		t.Fatalf("empty monitor reported drift: %+v", rep)
	}
}

// Same traffic stream → bit-identical reports, the determinism contract
// the seeded reservoirs exist for.
func TestMonitorDeterministic(t *testing.T) {
	base := NewBaseline(gaussData(1, 2000, 3, 0), 0)
	live := gaussData(7, 9000, 3, 0.3)
	run := func() Report {
		mon := NewMonitor(base, 128, 42)
		for i := 0; i < live.Rows(); i++ {
			mon.Observe(live.Row(i))
		}
		return mon.Snapshot()
	}
	a, b := run(), run()
	if a.MaxPSI != b.MaxPSI || a.MaxMeanShift != b.MaxMeanShift {
		t.Fatalf("replayed stream diverged: %+v vs %+v", a, b)
	}
	for j := range a.PSI {
		if a.PSI[j] != b.PSI[j] {
			t.Fatalf("feature %d PSI diverged: %g vs %g", j, a.PSI[j], b.PSI[j])
		}
	}
}

func TestMonitorConcurrentObserve(t *testing.T) {
	base := NewBaseline(gaussData(1, 500, 2, 0), 0)
	mon := NewMonitor(base, 64, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				mon.Observe([]float64{rng.NormFloat64(), rng.NormFloat64()})
				if i%100 == 0 {
					mon.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := mon.Count(); got != 8*500 {
		t.Fatalf("count %d, want %d", got, 8*500)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Offer 0..9999; each value must survive with probability cap/n, so
	// the mean of the kept sample approximates the stream mean.
	r := NewReservoir(500, 11)
	var streamSum float64
	for i := 0; i < 10000; i++ {
		r.Add(float64(i))
		streamSum += float64(i)
	}
	if r.seen != 10000 || len(r.Values()) != 500 {
		t.Fatalf("seen %d kept %d", r.seen, len(r.Values()))
	}
	var keptSum float64
	for _, v := range r.Values() {
		keptSum += v
	}
	streamMean, keptMean := streamSum/10000, keptSum/500
	if math.Abs(keptMean-streamMean) > 0.1*streamMean {
		t.Fatalf("reservoir mean %g far from stream mean %g", keptMean, streamMean)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	x := gaussData(5, 400, 3, 0)
	p := NewProfile(x, 0, 100, 77)
	if len(p.Reference) != 100 {
		t.Fatalf("reference rows %d, want 100", len(p.Reference))
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Baseline.Dims != 3 || got.Baseline.Rows != 400 {
		t.Fatalf("baseline round trip: %+v", got.Baseline)
	}
	for i := range p.Reference {
		for j := range p.Reference[i] {
			if got.Reference[i][j] != p.Reference[i][j] {
				t.Fatalf("reference row %d diverged", i)
			}
		}
	}
	// Same seed → same sample.
	q := NewProfile(x, 0, 100, 77)
	for i := range p.Reference {
		if p.Reference[i][0] != q.Reference[i][0] {
			t.Fatalf("seeded sampling not deterministic at row %d", i)
		}
	}
	// File round trip.
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := SaveProfile(path, p); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(path); err != nil {
		t.Fatal(err)
	}
}

// TestSaveProfileFailureKeepsPrevious pins the atomic publish: an encode
// failure (a NaN cannot cross JSON) must leave the previously saved
// profile byte-identical and no staging file behind.
func TestSaveProfileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "credit.profile")
	if err := SaveProfile(path, NewProfile(gaussData(3, 200, 3, 0), 0, 50, 1)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewProfile(gaussData(4, 200, 3, 0), 0, 50, 1)
	bad.Baseline.Mean[0] = math.NaN()
	if err := SaveProfile(path, bad); err == nil {
		t.Fatal("SaveProfile of a NaN baseline succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save changed the previous profile: %d bytes, was %d", len(after), len(before))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed save left %d files in the directory, want only the profile", len(entries))
	}
}

func TestDecodeProfileRejectsCorrupt(t *testing.T) {
	cases := []string{
		`not json`,
		`{"baseline":null}`,
		`{"baseline":{"dims":2,"edges":[[0]],"expect":[[0.5,0.5]],"mean":[0,0],"std":[1,1]}}`,
		`{"baseline":{"dims":1,"edges":[[0]],"expect":[[1]],"mean":[0],"std":[1]}}`,
	}
	for i, c := range cases {
		if _, err := DecodeProfile(bytes.NewReader([]byte(c))); err == nil {
			t.Fatalf("case %d decoded without error", i)
		}
	}
}

func TestProfileSmallData(t *testing.T) {
	x := gaussData(6, 5, 2, 0)
	p := NewProfile(x, 0, 100, 1) // refRows > m keeps every row
	if len(p.Reference) != 5 {
		t.Fatalf("reference rows %d, want all 5", len(p.Reference))
	}
}

// An identity-like transform (x̃ = x) over clustered data should score
// near-1 consistency on in-distribution probes; a scattering transform
// should score much lower. This pins the estimator's direction.
func TestConsistencySeparatesGoodFromScrambled(t *testing.T) {
	refX := gaussData(1, 300, 3, 0)
	// Good version: transform is the identity.
	good, err := NewConsistency(refX, refX, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Scrambled version: transform is an unrelated random matrix scaled up.
	scrT := gaussData(2, 300, 3, 0)
	for i := range scrT.Data() {
		scrT.Data()[i] *= 5
	}
	bad, err := NewConsistency(refX, scrT, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	probes := gaussData(3, 200, 3, 0)
	for i := 0; i < probes.Rows(); i++ {
		x := probes.Row(i)
		good.Observe(x, x)          // served transform ≈ identity
		bad.Observe(x, scramble(x)) // served transform scattered
	}
	gm, gn := good.Value()
	bm, bn := bad.Value()
	if gn != 200 || bn != 200 {
		t.Fatalf("counts %d %d", gn, bn)
	}
	if gm < 0.5 {
		t.Fatalf("identity transform consistency %g, want > 0.5", gm)
	}
	if bm > gm-0.2 {
		t.Fatalf("scrambled consistency %g not clearly below identity %g", bm, gm)
	}
}

func scramble(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v*5 + 7
	}
	return out
}

func TestConsistencyNoDataIsNaN(t *testing.T) {
	refX := gaussData(1, 50, 2, 0)
	c, err := NewConsistency(refX, refX, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m, n := c.Value(); n != 0 || !math.IsNaN(m) {
		t.Fatalf("empty estimator Value = %g, %d; want NaN, 0", m, n)
	}
	if got := c.Observe([]float64{1}, []float64{1, 2}); !math.IsNaN(got) {
		t.Fatalf("wrong-width observe scored %g, want NaN", got)
	}
	if _, n := c.Value(); n != 0 {
		t.Fatal("wrong-width observe was accumulated")
	}
}

func TestConsistencyCollapsedTransformScoresZero(t *testing.T) {
	refX := gaussData(1, 100, 2, 0)
	refT := mat.NewDense(100, 2) // every reference maps to the origin
	c, err := NewConsistency(refX, refT, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.scale != 0 {
		t.Fatalf("collapsed transform scale %g, want 0", c.scale)
	}
	// A served transform away from the collapse point scores 0...
	if got := c.Observe([]float64{0, 0}, []float64{3, 3}); got != 0 {
		t.Fatalf("off-collapse observation scored %g, want 0", got)
	}
	// ...and one exactly on it scores 1 (distance 0).
	if got := c.Observe([]float64{0, 0}, []float64{0, 0}); got != 1 {
		t.Fatalf("on-collapse observation scored %g, want 1", got)
	}
}

func TestConsistencyDeterministic(t *testing.T) {
	refX := gaussData(4, 200, 3, 0)
	refT := gaussData(5, 200, 3, 0)
	a, _ := NewConsistency(refX, refT, 5, 123)
	b, _ := NewConsistency(refX, refT, 5, 123)
	if a.scale != b.scale {
		t.Fatalf("seeded scale diverged: %g vs %g", a.scale, b.scale)
	}
	probes := gaussData(6, 50, 3, 0)
	for i := 0; i < probes.Rows(); i++ {
		x := probes.Row(i)
		if sa, sb := a.Observe(x, x), b.Observe(x, x); sa != sb {
			t.Fatalf("probe %d diverged: %g vs %g", i, sa, sb)
		}
	}
}

func TestConsistencyRejectsBadReference(t *testing.T) {
	if _, err := NewConsistency(mat.NewDense(0, 2), mat.NewDense(0, 2), 0, 1); err == nil {
		t.Fatal("empty reference accepted")
	}
	if _, err := NewConsistency(mat.NewDense(3, 2), mat.NewDense(2, 2), 0, 1); err == nil {
		t.Fatal("mismatched row counts accepted")
	}
}
