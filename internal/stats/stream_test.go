package stats

import (
	"math"
	"math/rand"
	"testing"
)

// Welford must agree with the batch Mean/Variance helpers on random data:
// same population-variance convention, same N<2 behaviour.
func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*float64(1+trial%7) + float64(trial)
			w.Add(xs[i])
		}
		if got, want := w.Mean(), Mean(xs); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: mean %g, batch %g", trial, got, want)
		}
		if got, want := w.Variance(), Variance(xs); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: variance %g, batch %g", trial, got, want)
		}
	}
}

func TestWelfordSmallN(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Fatalf("zero-value Welford: mean=%g var=%g", w.Mean(), w.Variance())
	}
	w.Add(3.5)
	if w.Mean() != 3.5 {
		t.Fatalf("mean after one obs: %g", w.Mean())
	}
	if w.Variance() != 0 {
		t.Fatalf("variance with N=1 must be 0 (batch convention), got %g", w.Variance())
	}
}

func TestPSIIdentityAndSign(t *testing.T) {
	p := []float64{0.25, 0.25, 0.25, 0.25}
	if got := PSI(p, p); got != 0 {
		t.Fatalf("PSI(p,p) = %g, want 0", got)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(10)
		e := make([]float64, k)
		a := make([]float64, k)
		for i := 0; i < k; i++ {
			e[i] = rng.Float64()
			a[i] = rng.Float64()
		}
		if got := PSI(e, a); got < 0 {
			t.Fatalf("trial %d: PSI = %g < 0", trial, got)
		}
		if got := PSI(e, e); got != 0 {
			t.Fatalf("trial %d: PSI(e,e) = %g, want 0", trial, got)
		}
	}
}

// A known mass shift must land in the standard alarm band, and a bigger
// shift must yield a bigger PSI.
func TestPSIShiftMonotone(t *testing.T) {
	e := []float64{0.25, 0.25, 0.25, 0.25}
	small := []float64{0.30, 0.25, 0.25, 0.20} // mild drift
	big := []float64{0.55, 0.25, 0.15, 0.05}   // severe drift
	ps, pb := PSI(e, small), PSI(e, big)
	if ps <= 0 || pb <= ps {
		t.Fatalf("PSI not monotone in shift: small=%g big=%g", ps, pb)
	}
	if ps > 0.1 {
		t.Fatalf("mild shift PSI %g should be < 0.1", ps)
	}
	if pb < 0.25 {
		t.Fatalf("severe shift PSI %g should be > 0.25", pb)
	}
}

func TestPSIEmptyBinsFinite(t *testing.T) {
	e := []float64{0.5, 0.5, 0}
	a := []float64{0, 0.5, 0.5}
	got := PSI(e, a)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("PSI with empty bins not finite: %g", got)
	}
	if got <= 0 {
		t.Fatalf("PSI with disjoint mass should be > 0, got %g", got)
	}
}

func TestQuantileEdgesAndProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	edges := QuantileEdges(xs, 10)
	if len(edges) != 9 {
		t.Fatalf("edges: got %d, want 9", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges not strictly increasing at %d: %v", i, edges)
		}
	}
	props := Proportions(xs, edges)
	if len(props) != 10 {
		t.Fatalf("props: got %d bins, want 10", len(props))
	}
	var sum float64
	for i, p := range props {
		sum += p
		if p < 0.05 || p > 0.15 {
			t.Fatalf("bin %d proportion %g far from uniform 0.1", i, p)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("proportions sum %g, want 1", sum)
	}
	// PSI of the sample against itself through the binning is exactly 0.
	if got := PSI(props, Proportions(xs, edges)); got != 0 {
		t.Fatalf("self-PSI through bins = %g, want 0", got)
	}
	// A shifted sample through the same bins must alarm.
	shifted := make([]float64, len(xs))
	for i := range xs {
		shifted[i] = xs[i] + 1.5
	}
	if got := PSI(props, Proportions(shifted, edges)); got < 0.25 {
		t.Fatalf("PSI of 1.5σ shift = %g, want > 0.25", got)
	}
}

func TestQuantileEdgesDegenerate(t *testing.T) {
	if got := QuantileEdges(nil, 10); got != nil {
		t.Fatalf("edges of empty sample: %v", got)
	}
	if got := QuantileEdges([]float64{1, 2, 3}, 1); got != nil {
		t.Fatalf("edges with bins=1: %v", got)
	}
	constant := []float64{7, 7, 7, 7, 7}
	edges := QuantileEdges(constant, 10)
	if len(edges) > 1 {
		t.Fatalf("constant sample should collapse to ≤1 edge, got %v", edges)
	}
	props := Proportions(constant, edges)
	var sum float64
	for _, p := range props {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("degenerate proportions sum %g, want 1", sum)
	}
}
