package linmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/metrics"
)

func TestGaussianNBSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := separableData(rng, 300)
	model, err := FitGaussianNB(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := metrics.Accuracy(model.PredictProba(x), y); acc < 0.9 {
		t.Fatalf("accuracy = %v, want ≥ 0.9", acc)
	}
}

func TestGaussianNBProbabilitiesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := separableData(rng, 120)
	model, err := FitGaussianNB(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range model.PredictProba(x) {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability %v invalid", p)
		}
	}
}

func TestGaussianNBLearnsPrior(t *testing.T) {
	// With uninformative features, predictions should follow the prior.
	rng := rand.New(rand.NewSource(4))
	m := 500
	x := mat.NewDense(m, 1)
	y := make([]bool, m)
	for i := 0; i < m; i++ {
		x.Set(i, 0, rng.NormFloat64())
		y[i] = i%5 == 0 // 20% positive
	}
	model, err := FitGaussianNB(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.Prior-0.2) > 1e-9 {
		t.Fatalf("prior = %v, want 0.2", model.Prior)
	}
	var mean float64
	for _, p := range model.PredictProba(x) {
		mean += p
	}
	mean /= float64(m)
	if math.Abs(mean-0.2) > 0.05 {
		t.Fatalf("mean probability = %v, want ≈0.2", mean)
	}
}

func TestGaussianNBSingleClassErrors(t *testing.T) {
	x := mat.FromRows([][]float64{{1}, {2}})
	if _, err := FitGaussianNB(x, []bool{true, true}); err == nil {
		t.Fatal("expected error for single-class data")
	}
}

func TestGaussianNBEmptyData(t *testing.T) {
	if _, err := FitGaussianNB(mat.NewDense(0, 0), nil); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestGaussianNBConstantFeatureNoNaN(t *testing.T) {
	// A constant feature has zero variance; the floor must keep the
	// likelihood finite.
	x := mat.FromRows([][]float64{{5, 0}, {5, 1}, {5, 0}, {5, 3}})
	y := []bool{true, false, true, false}
	model, err := FitGaussianNB(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range model.PredictProba(x) {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("probability %v not finite", p)
		}
	}
}

func TestGaussianNBFeatureMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := separableData(rng, 40)
	model, err := FitGaussianNB(x, y)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	model.PredictProba(mat.NewDense(2, 5))
}
