package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice statistics should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("single-element variance should be 0")
	}
}

func TestCovarianceOfSelfIsVariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 3
		}
		return math.Abs(Covariance(xs, xs)-Variance(xs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Covariance returns the population covariance of two equal-length samples.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Covariance length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs))
}

// correlation returns the Pearson correlation of two samples, or 0 if either
// sample has zero variance. TestGaussian2DMoments checks the sampler's rho
// with it.
func correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

func TestCorrelationBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 40)
		ys := make([]float64, 40)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		c := correlation(xs, ys)
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrelationPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := correlation(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Correlation = %v, want 1", got)
	}
}

func TestCorrelationZeroVariance(t *testing.T) {
	if got := correlation([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Correlation with constant sample = %v, want 0", got)
	}
}

func TestGaussian2DMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Gaussian2D{MeanX: 2, MeanY: -1, VarX: 1, VarY: 1, Rho: 0.95}
	const n = 50000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = g.Sample(rng)
	}
	if got := Mean(xs); math.Abs(got-2) > 0.05 {
		t.Fatalf("mean x = %v, want ≈2", got)
	}
	if got := Mean(ys); math.Abs(got+1) > 0.05 {
		t.Fatalf("mean y = %v, want ≈-1", got)
	}
	if got := correlation(xs, ys); math.Abs(got-0.95) > 0.02 {
		t.Fatalf("correlation = %v, want ≈0.95", got)
	}
	if got := Variance(xs); math.Abs(got-1) > 0.05 {
		t.Fatalf("var x = %v, want ≈1", got)
	}
}

func TestGaussian2DInvalidRhoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rho = 1")
		}
	}()
	Gaussian2D{VarX: 1, VarY: 1, Rho: 1}.Sample(rand.New(rand.NewSource(1)))
}

func TestMixtureSamplesAllComponents(t *testing.T) {
	m := Mixture2D{Components: []MixtureComponent{
		{Weight: 0.5, Dist: Gaussian2D{MeanX: -10, VarX: 0.01, VarY: 0.01}},
		{Weight: 0.5, Dist: Gaussian2D{MeanX: 10, VarX: 0.01, VarY: 0.01}},
	}}
	rng := rand.New(rand.NewSource(3))
	counts := [2]int{}
	for i := 0; i < 1000; i++ {
		x, _, c := m.Sample(rng)
		counts[c]++
		if c == 0 && x > 0 || c == 1 && x < 0 {
			t.Fatalf("sample x=%v inconsistent with component %d", x, c)
		}
	}
	if counts[0] < 400 || counts[1] < 400 {
		t.Fatalf("unbalanced component usage: %v", counts)
	}
}

func TestMixtureEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty mixture")
		}
	}()
	Mixture2D{}.Sample(rand.New(rand.NewSource(1)))
}

func TestStandardizeUnitVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 200)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64()*5 + 3, rng.Float64() * 100}
	}
	Standardize(rows)
	for j := 0; j < 2; j++ {
		col := make([]float64, len(rows))
		for i, r := range rows {
			col[i] = r[j]
		}
		if m := Mean(col); math.Abs(m) > 1e-9 {
			t.Fatalf("col %d mean = %v, want 0", j, m)
		}
		if v := Variance(col); math.Abs(v-1) > 1e-9 {
			t.Fatalf("col %d variance = %v, want 1", j, v)
		}
	}
}

func TestStandardizeConstantColumn(t *testing.T) {
	rows := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	Standardize(rows)
	for _, r := range rows {
		if r[0] != 0 {
			t.Fatalf("constant column should centre to 0, got %v", r[0])
		}
	}
}

func TestApplyStandardizeReusesFit(t *testing.T) {
	train := [][]float64{{0}, {10}}
	means, stds := Standardize(train)
	test := []float64{5}
	ApplyStandardize(test, test, means, stds)
	if test[0] != 0 {
		t.Fatalf("midpoint should standardise to 0, got %v", test[0])
	}
}

func TestBernoulliExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if Bernoulli(rng, 0) {
			t.Fatal("p=0 must never be true")
		}
		if !Bernoulli(rng, 1) {
			t.Fatal("p=1 must always be true")
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}
