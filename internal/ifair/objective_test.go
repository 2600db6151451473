package ifair

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/optimize"
)

// paramLen returns the packed parameter-vector length: N weights α, then
// the K×N prototypes.
func (o *objective) paramLen() int { return o.n + o.opts.K*o.n }

func randomData(rng *rand.Rand, m, n int) *mat.Dense {
	x := mat.NewDense(m, n)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	return x
}

// lossOnly evaluates the full objective without its gradient.
func (o *objective) lossOnly(theta []float64) float64 {
	return o.eval(&o.full, theta, nil)
}

// newTestObjective builds an objective plus a random parameter point.
func newTestObjective(seed int64, opts Options) (*objective, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := randomData(rng, 8, 4)
	if err := opts.fill(8, 4); err != nil {
		panic(err)
	}
	obj := newObjective(x, opts, rng)
	theta := initialTheta(x, opts, rng)
	return obj, theta
}

// TestAnalyticGradientMatchesNumeric is the most important test in the
// package: it validates the hand-derived backpropagation through the
// softmax prototype mapping against central differences, for several
// hyper-parameter regimes.
func TestAnalyticGradientMatchesNumeric(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"utility only", Options{K: 3, Lambda: 1, Mu: 0}},
		{"fairness only", Options{K: 3, Lambda: 0, Mu: 1}},
		{"both", Options{K: 3, Lambda: 0.7, Mu: 1.3}},
		{"protected masked", Options{K: 2, Lambda: 1, Mu: 1, Protected: []int{3}, Init: InitMaskedProtected}},
		{"sampled pairs", Options{K: 3, Lambda: 1, Mu: 1, Fairness: SampledFairness, PairSamples: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				obj, theta := newTestObjective(seed, tc.opts)
				if disc := optimize.CheckGradient(obj, theta, 1e-5); disc > 1e-4 {
					t.Fatalf("seed %d: gradient discrepancy %v", seed, disc)
				}
			}
		})
	}
}

// Property: analytic gradient matches numeric at random points, not only at
// initialisation.
func TestGradientCheckAtRandomPoints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{K: 2, Lambda: 1, Mu: 1}
		if err := opts.fill(6, 3); err != nil {
			return false
		}
		x := randomData(rng, 6, 3)
		obj := newObjective(x, opts, rng)
		theta := make([]float64, obj.paramLen())
		for i := range theta {
			theta[i] = rng.NormFloat64()
		}
		return optimize.CheckGradient(obj, theta, 1e-5) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestLossOnlyAgreesWithEval(t *testing.T) {
	obj, theta := newTestObjective(7, Options{K: 3, Lambda: 0.5, Mu: 2})
	grad := make([]float64, obj.paramLen())
	if lossA, lossB := obj.Eval(theta, grad), obj.lossOnly(theta); math.Abs(lossA-lossB) > 1e-10 {
		t.Fatalf("Eval loss %v != lossOnly %v", lossA, lossB)
	}
}

func TestLossNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		obj, theta := newTestObjective(seed, Options{K: 2, Lambda: 1, Mu: 1})
		return obj.lossOnly(theta) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPairwisePairCount(t *testing.T) {
	opts := Options{K: 2, Lambda: 1, Mu: 1}
	if err := opts.fill(10, 3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	obj := newObjective(randomData(rng, 10, 3), opts, rng)
	if want := 10 * 9 / 2; len(obj.full.pairs) != want {
		t.Fatalf("pairs = %d, want %d", len(obj.full.pairs), want)
	}
}

func TestSampledPairCountBounded(t *testing.T) {
	opts := Options{K: 2, Lambda: 1, Mu: 1, Fairness: SampledFairness, PairSamples: 5}
	if err := opts.fill(20, 3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	obj := newObjective(randomData(rng, 20, 3), opts, rng)
	if len(obj.full.pairs) > 20*5 {
		t.Fatalf("pairs = %d, want ≤ 100", len(obj.full.pairs))
	}
	for _, p := range obj.full.pairs {
		if p.i == p.j {
			t.Fatal("self-pair found")
		}
	}
}

func TestNoPairsWhenMuZero(t *testing.T) {
	opts := Options{K: 2, Lambda: 1, Mu: 0}
	if err := opts.fill(10, 3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	obj := newObjective(randomData(rng, 10, 3), opts, rng)
	if len(obj.full.pairs) != 0 {
		t.Fatalf("pairs = %d, want 0 when µ = 0", len(obj.full.pairs))
	}
}

func TestTargetDistancesIgnoreProtected(t *testing.T) {
	// Two records identical except on the protected column must have a
	// zero target distance.
	x := mat.FromRows([][]float64{
		{1, 2, 0},
		{1, 2, 9},
	})
	opts := Options{K: 1, Lambda: 1, Mu: 1, Protected: []int{2}}
	if err := opts.fill(2, 3); err != nil {
		t.Fatal(err)
	}
	obj := newObjective(x, opts, rand.New(rand.NewSource(1)))
	if len(obj.full.pairs) != 1 || obj.full.target[0] != 0 {
		t.Fatalf("target = %v, want [0]", obj.full.target)
	}
}

func TestNonProtectedIndices(t *testing.T) {
	got := nonProtectedIndices(5, []int{1, 3})
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
