package lfr

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/optimize"
	"repro/internal/par"
)

// labelledData builds records whose label depends on feature 0 and whose
// protected flag correlates with feature 1.
func labelledData(rng *rand.Rand, m int) (*mat.Dense, []bool, []bool) {
	x := mat.NewDense(m, 3)
	y := make([]bool, m)
	prot := make([]bool, m)
	for i := 0; i < m; i++ {
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		prot[i] = b > 0.3
		x.Set(i, 2, boolTo01(prot[i]))
		y[i] = a > 0
	}
	return x, y, prot
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestGradientMatchesNumeric(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"reconstruction only", Options{K: 3, Ax: 1}},
		{"prediction only", Options{K: 3, Ay: 1}},
		{"parity only", Options{K: 3, Az: 1}},
		{"all terms", Options{K: 3, Az: 2, Ax: 0.5, Ay: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			x, y, prot := labelledData(rng, 10)
			if err := tc.opts.fill(); err != nil {
				t.Fatal(err)
			}
			obj := newObjective(x, y, prot, tc.opts)
			for trial := 0; trial < 3; trial++ {
				theta := obj.initialTheta(rng)
				if disc := optimize.CheckGradient(obj, theta, 1e-5); disc > 1e-4 {
					t.Fatalf("trial %d: gradient discrepancy %v", trial, disc)
				}
			}
		})
	}
}

func TestFitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y, prot := labelledData(rng, 10)
	if _, err := Fit(x, y, prot, Options{K: 0}); err == nil {
		t.Fatal("expected error for K = 0")
	}
	if _, err := Fit(x, y, prot, Options{K: 2, Ax: -1}); err == nil {
		t.Fatal("expected error for negative weight")
	}
	if _, err := Fit(x, y[:3], prot, Options{K: 2, Ax: 1}); err == nil {
		t.Fatal("expected error for label length mismatch")
	}
	if _, err := Fit(mat.NewDense(0, 0), nil, nil, Options{K: 2}); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestFitLearnsLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y, prot := labelledData(rng, 120)
	model, err := Fit(x, y, prot, Options{K: 6, Ax: 0.01, Ay: 1, Az: 0.1, Seed: 3, MaxIterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	if acc := metrics.Accuracy(model.PredictProba(x), y); acc < 0.8 {
		t.Fatalf("LFR internal classifier accuracy = %v, want ≥ 0.8", acc)
	}
}

func TestPredictionsInUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y, prot := labelledData(rng, 60)
	model, err := Fit(x, y, prot, Options{K: 4, Ax: 1, Ay: 1, Az: 1, Seed: 1, MaxIterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range model.PredictProba(x) {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("prediction %v out of [0,1]", p)
		}
	}
	for _, w := range model.W {
		if w <= 0 || w >= 1 {
			t.Fatalf("prototype score %v out of (0,1)", w)
		}
	}
}

func TestParityTermImprovesParity(t *testing.T) {
	// With a protected flag correlated to a feature, turning the parity
	// weight up should reduce the parity gap of LFR's own predictions.
	rng := rand.New(rand.NewSource(4))
	m := 150
	x := mat.NewDense(m, 3)
	y := make([]bool, m)
	prot := make([]bool, m)
	for i := 0; i < m; i++ {
		prot[i] = i%2 == 0
		base := rng.NormFloat64()
		if prot[i] {
			base -= 1.2 // protected group skewed to negative labels
		}
		x.Set(i, 0, base)
		x.Set(i, 1, rng.NormFloat64())
		x.Set(i, 2, boolTo01(prot[i]))
		y[i] = base > 0
	}
	loose, err := Fit(x, y, prot, Options{K: 5, Ax: 0.01, Ay: 1, Az: 0, Seed: 5, MaxIterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Fit(x, y, prot, Options{K: 5, Ax: 0.01, Ay: 1, Az: 20, Seed: 5, MaxIterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	parityLoose := metrics.StatisticalParity(loose.PredictProba(x), prot)
	parityStrict := metrics.StatisticalParity(strict.PredictProba(x), prot)
	if parityStrict < parityLoose {
		t.Fatalf("parity with Az=20 (%v) worse than Az=0 (%v)", parityStrict, parityLoose)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y, prot := labelledData(rng, 15)
		model, err := Fit(x, y, prot, Options{K: 3, Ax: 1, Ay: 1, Az: 1, Seed: seed, MaxIterations: 15})
		if err != nil {
			return false
		}
		kern, err := model.Compile()
		if err != nil {
			return false
		}
		probs := make([]float64, kern.K())
		for i := 0; i < 15; i++ {
			if err := kern.ProbabilitiesInto(probs, x.Row(i)); err != nil {
				return false
			}
			var sum float64
			for _, u := range probs {
				if u < 0 {
					return false
				}
				sum += u
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestTransformShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y, prot := labelledData(rng, 30)
	model, err := Fit(x, y, prot, Options{K: 3, Ax: 1, Ay: 1, Az: 1, Seed: 2, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	xt := mat.NewDense(30, 3)
	if err := model.TransformInto(xt, x, 1); err != nil {
		t.Fatal(err)
	}
	if err := model.TransformInto(mat.NewDense(30, 2), x, 1); err == nil {
		t.Fatal("TransformInto accepted a mis-sized destination")
	}
}

// TestCompileMatchesObjectiveForward pins Model.Compile — the
// only inference implementation of LFR's memberships and prototype mix
// — to the training forward pass, bit for bit: the memberships and
// reconstructions Eval computes at a parameter point equal the compiled
// kernel's ProbabilitiesInto and TransformRowInto for the model decoded
// from the same point.
func TestCompileMatchesObjectiveForward(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y, prot := labelledData(rng, 25)
	opts := Options{K: 4, Ax: 1, Ay: 1, Az: 1}
	if err := opts.fill(); err != nil {
		t.Fatal(err)
	}
	obj := newObjective(x, y, prot, opts)
	theta := obj.initialTheta(rng)
	for j := range theta {
		theta[j] += 0.3 * rng.NormFloat64()
	}
	obj.Eval(theta, make([]float64, len(theta)))
	kern, err := obj.modelFromTheta(theta).Compile()
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, opts.K)
	xh := make([]float64, x.Cols())
	for i := 0; i < x.Rows(); i++ {
		if err := kern.ProbabilitiesInto(u, x.Row(i)); err != nil {
			t.Fatal(err)
		}
		if err := kern.TransformRowInto(xh, x.Row(i)); err != nil {
			t.Fatal(err)
		}
		for k, v := range obj.u.Row(i) {
			if math.Float64bits(u[k]) != math.Float64bits(v) {
				t.Fatalf("record %d: u[%d] = %v, forward pass says %v", i, k, u[k], v)
			}
		}
		for j, v := range obj.xh.Row(i) {
			if math.Float64bits(xh[j]) != math.Float64bits(v) {
				t.Fatalf("record %d: x̂[%d] = %v, forward pass says %v", i, j, xh[j], v)
			}
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y, prot := labelledData(rng, 40)
	opts := Options{K: 3, Ax: 1, Ay: 1, Az: 1, Seed: 9, MaxIterations: 30}
	m1, err := Fit(x, y, prot, opts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(x, y, prot, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(m1.Prototypes, m2.Prototypes, 0) || modelLoss(x, y, prot, opts, m1) != modelLoss(x, y, prot, opts, m2) {
		t.Fatal("same seed must reproduce the same model")
	}
}

func TestRestartsNotWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y, prot := labelledData(rng, 50)
	opts := Options{K: 3, Ax: 1, Ay: 1, Az: 1, Seed: 4, MaxIterations: 25}
	one, err := Fit(x, y, prot, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Restarts = 3
	three, err := Fit(x, y, prot, opts)
	if err != nil {
		t.Fatal(err)
	}
	if l3, l1 := modelLoss(x, y, prot, opts, three), modelLoss(x, y, prot, opts, one); l3 > l1+1e-9 {
		t.Fatalf("best-of-3 loss %v worse than single %v", l3, l1)
	}
}

// modelLoss re-scores a fitted model under its training objective, from
// the parameter vector the model was decoded from (w_k = σ(θ_k)).
func modelLoss(x *mat.Dense, y, prot []bool, opts Options, md *Model) float64 {
	obj := newObjective(x, y, prot, opts)
	theta := make([]float64, obj.paramLen())
	for k, w := range md.W {
		theta[k] = math.Log(w / (1 - w))
	}
	copy(theta[len(md.W):], md.Prototypes.Data())
	return obj.Eval(theta, make([]float64, len(theta)))
}

// TestEvalBitIdenticalAcrossWorkers: the chunked objective reduces
// per-chunk partials in chunk order (internal/par) and its forward pass
// writes only chunk-local scratch, so loss and gradient are
// bit-identical for every worker count — on repeated evaluations too.
// IFAIR_TEST_WORKER_SWEEP=1 (set by `make test-workers`) widens the
// sweep to every worker count in [2, 17] and to record counts on both
// sides of par.MaxChunks.
func TestEvalBitIdenticalAcrossWorkers(t *testing.T) {
	eval := func(m, workers int) (float64, float64, []float64) {
		rng := rand.New(rand.NewSource(13))
		x, y, prot := labelledData(rng, m)
		opts := Options{K: 3, Az: 1, Ax: 1, Ay: 1, Workers: workers}
		if err := opts.fill(); err != nil {
			t.Fatal(err)
		}
		obj := newObjective(x, y, prot, opts)
		theta := obj.initialTheta(rand.New(rand.NewSource(17)))
		grad := make([]float64, len(theta))
		l1 := obj.Eval(theta, grad)
		l2 := obj.Eval(theta, grad)
		return l1, l2, grad
	}
	sizes := []int{57}
	workers := []int{2, 3, 5, 8, 16, 17}
	if os.Getenv("IFAIR_TEST_WORKER_SWEEP") != "" {
		sizes = []int{1, 2, par.MaxChunks - 1, par.MaxChunks, par.MaxChunks + 1, 57, 2 * par.MaxChunks}
		workers = workers[:0]
		for w := 2; w <= 17; w++ {
			workers = append(workers, w)
		}
	}
	for _, m := range sizes {
		want1, want2, wantGrad := eval(m, 1)
		for _, w := range workers {
			got1, got2, gotGrad := eval(m, w)
			if math.Float64bits(got1) != math.Float64bits(want1) || math.Float64bits(got2) != math.Float64bits(want2) {
				t.Fatalf("m=%d workers=%d: losses (%v, %v) != sequential (%v, %v)", m, w, got1, got2, want1, want2)
			}
			for i := range wantGrad {
				if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
					t.Fatalf("m=%d workers=%d: grad[%d] = %v != sequential %v", m, w, i, gotGrad[i], wantGrad[i])
				}
			}
		}
	}
}
