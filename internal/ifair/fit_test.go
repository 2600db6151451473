package ifair

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestFitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randomData(rng, 10, 3)
	cases := []struct {
		name string
		opts Options
	}{
		{"zero K", Options{K: 0, Lambda: 1}},
		{"negative lambda", Options{K: 2, Lambda: -1}},
		{"negative mu", Options{K: 2, Mu: -1}},
		{"protected out of range", Options{K: 2, Lambda: 1, Protected: []int{7}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Fit(x, tc.opts); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestFitEmptyData(t *testing.T) {
	if _, err := Fit(mat.NewDense(0, 0), Options{K: 2, Lambda: 1}); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestFitDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randomData(rng, 20, 3)
	opts := Options{K: 2, Lambda: 1, Mu: 0.5, Seed: 42, MaxIterations: 30}
	m1, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(m1.Prototypes, m2.Prototypes, 0) {
		t.Fatal("same seed must give identical prototypes")
	}
	if m1.Loss != m2.Loss {
		t.Fatal("same seed must give identical loss")
	}
}

func TestFitReducesLossVersusInit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomData(rng, 25, 4)
	opts := Options{K: 3, Lambda: 1, Mu: 1, Seed: 7, MaxIterations: 60}
	if err := opts.fill(25, 4); err != nil {
		t.Fatal(err)
	}
	seedRNG := rand.New(rand.NewSource(opts.Seed))
	obj := newObjective(x, opts, seedRNG)
	theta0 := initialTheta(x, opts, seedRNG)
	loss0 := obj.lossOnly(theta0)

	model, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if model.Loss >= loss0 {
		t.Fatalf("final loss %v not below a random init loss %v", model.Loss, loss0)
	}
}

func TestRestartsPickBest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomData(rng, 20, 3)
	single, err := Fit(x, Options{K: 2, Lambda: 1, Mu: 1, Seed: 5, MaxIterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Fit(x, Options{K: 2, Lambda: 1, Mu: 1, Seed: 5, MaxIterations: 25, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Loss > single.Loss+1e-9 {
		t.Fatalf("best-of-3 loss %v worse than single-run loss %v", multi.Loss, single.Loss)
	}
}

func TestAlphaNonNegative(t *testing.T) {
	model, _ := fittedModel(t, 11)
	for _, a := range model.Alpha {
		if a < 0 {
			t.Fatalf("negative attribute weight %v", a)
		}
	}
}

// TestMaskedInitSuppressesProtectedInfluence is the behavioural core of
// iFair-b: after fitting with near-zero initial weight on the protected
// attribute, flipping that attribute should barely move the
// representation, while flipping a qualification attribute should move it
// much more (Sec. IV, "Influence of Protected Group").
func TestMaskedInitSuppressesProtectedInfluence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 40, 3
	x := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
		x.Set(i, 2, float64(rng.Intn(2))) // protected binary attribute
	}
	model, err := Fit(x, Options{
		K: 4, Lambda: 1, Mu: 0.5,
		Protected: []int{2}, Init: InitMaskedProtected,
		Seed: 9, MaxIterations: 60,
	})
	if err != nil {
		t.Fatal(err)
	}

	var protShift, qualShift float64
	for i := 0; i < m; i++ {
		base := append([]float64(nil), x.Row(i)...)
		tb := mustTransformRow(t, model, base)

		flipProt := append([]float64(nil), base...)
		flipProt[2] = 1 - flipProt[2]
		tp := mustTransformRow(t, model, flipProt)

		flipQual := append([]float64(nil), base...)
		flipQual[0] += 1
		tq := mustTransformRow(t, model, flipQual)

		protShift += math.Sqrt(mat.SqDist(tb, tp))
		qualShift += math.Sqrt(mat.SqDist(tb, tq))
	}
	if protShift >= qualShift {
		t.Fatalf("protected flip moved representation (%v) at least as much as qualification change (%v)", protShift, qualShift)
	}
}

// TestFairnessTermImprovesDistancePreservation checks the paper's central
// claim at unit scale: adding the fairness loss (µ > 0) yields
// representations whose pairwise distances track the masked input distances
// better than a reconstruction-only model (µ = 0) on data where a protected
// attribute distorts the geometry.
func TestFairnessTermImprovesDistancePreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := 40
	x := mat.NewDense(m, 3)
	for i := 0; i < m; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
		// Protected attribute with a large scale so it dominates naive
		// reconstruction.
		x.Set(i, 2, float64(rng.Intn(2))*4-2)
	}
	base := Options{K: 5, Protected: []int{2}, Seed: 3, MaxIterations: 80, Init: InitMaskedProtected}

	utilOnly := base
	utilOnly.Lambda = 1
	utilOnly.Mu = 0
	mu0, err := Fit(x, utilOnly)
	if err != nil {
		t.Fatal(err)
	}

	withFair := base
	withFair.Lambda = 1
	withFair.Mu = 1
	mu1, err := Fit(x, withFair)
	if err != nil {
		t.Fatal(err)
	}

	evalOpts := base
	evalOpts.Mu = 1
	_, fair0, err := Losses(mu0, x, evalOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, fair1, err := Losses(mu1, x, evalOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fair1 >= fair0 {
		t.Fatalf("fairness loss with µ=1 (%v) not below µ=0 (%v)", fair1, fair0)
	}
}

func TestLossesUtilityMatchesManual(t *testing.T) {
	model, x := fittedModel(t, 12)
	util, _, err := Losses(model, x, Options{K: model.K(), Lambda: 1, Mu: 0})
	if err != nil {
		t.Fatal(err)
	}
	xt := mustTransform(t, model, x)
	var want float64
	for i := 0; i < x.Rows(); i++ {
		want += mat.SqDist(x.Row(i), xt.Row(i))
	}
	if math.Abs(util-want) > 1e-9 {
		t.Fatalf("util = %v, want %v", util, want)
	}
}

// TestLossesMatchesObjective: Losses fills the options like Fit and
// reports the components of the objective such a fit trains, in every
// fairness mode — so λ·util + µ·fair reproduces the objective at the
// model's parameters, and the sampled and neighbour pair sets are not
// silently empty.
func TestLossesMatchesObjective(t *testing.T) {
	const m, n, k = 60, 4, 3
	rng := rand.New(rand.NewSource(1))
	x := randomData(rng, m, n)
	model := &Model{Prototypes: randomData(rng, k, n), Alpha: make([]float64, n), P: 2}
	for j := range model.Alpha {
		model.Alpha[j] = 0.5 + rng.Float64()
	}
	for _, mode := range []FairnessMode{PairwiseFairness, SampledFairness, NeighborFairness} {
		opts := Options{K: k, Lambda: 0.7, Mu: 1.3, Seed: 2, Fairness: mode}
		util, fair, err := Losses(model, x, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fair <= 0 {
			t.Fatalf("%v: fairness loss %v, want > 0", mode, fair)
		}
		if err := opts.fill(m, n); err != nil {
			t.Fatal(err)
		}
		obj := newObjective(x, opts, rand.New(rand.NewSource(opts.Seed)))
		want := obj.lossOnly(warmStartTheta(model))
		if got := opts.Lambda*util + opts.Mu*fair; math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("%v: λ·util + µ·fair = %v, objective %v", mode, got, want)
		}
	}
	if _, _, err := Losses(model, mat.NewDense(MaxPairwiseRows+1, n), Options{K: k}); err == nil {
		t.Fatal("Losses accepted a pairwise problem above MaxPairwiseRows")
	}
}

func TestInitStrategyStrings(t *testing.T) {
	if InitRandom.String() != "iFair-a" || InitMaskedProtected.String() != "iFair-b" {
		t.Fatal("InitStrategy strings wrong")
	}
	if InitStrategy(9).String() != "unknown" {
		t.Fatal("unknown InitStrategy string wrong")
	}
	if PairwiseFairness.String() != "pairwise" || SampledFairness.String() != "sampled" || FairnessMode(9).String() != "unknown" {
		t.Fatal("FairnessMode strings wrong")
	}
}

func TestFitWithNoProtectedAttributes(t *testing.T) {
	// The paper explicitly allows an empty protected set (l = N).
	rng := rand.New(rand.NewSource(9))
	x := randomData(rng, 15, 3)
	model, err := Fit(x, Options{K: 2, Lambda: 1, Mu: 1, Seed: 2, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if model.K() != 2 || model.Dims() != 3 {
		t.Fatalf("model shape %d×%d", model.K(), model.Dims())
	}
}
