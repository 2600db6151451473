package adversarial

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linmodel"
	"repro/internal/mat"
	"repro/internal/metrics"
)

// leakyData builds records whose protected flag is strongly encoded in
// feature 0 and mildly in feature 1.
func leakyData(rng *rand.Rand, m int) (*mat.Dense, []bool) {
	x := mat.NewDense(m, 4)
	prot := make([]bool, m)
	for i := 0; i < m; i++ {
		prot[i] = i%2 == 0
		shift := -1.0
		if prot[i] {
			shift = 1.0
		}
		x.Set(i, 0, shift+rng.NormFloat64()*0.3)
		x.Set(i, 1, shift*0.5+rng.NormFloat64())
		x.Set(i, 2, rng.NormFloat64())
		x.Set(i, 3, rng.NormFloat64())
	}
	return x, prot
}

// project maps x through the model's compiled projection, failing the
// test on error.
func project(t *testing.T, model *Model, x *mat.Dense) *mat.Dense {
	t.Helper()
	out := mat.NewDense(x.Rows(), model.P.Cols())
	if err := model.TransformInto(out, x, 1); err != nil {
		t.Fatal(err)
	}
	return out
}

// removedDirections counts the directions a fitted projection removes.
// P is a product of eliminators I − uuᵀ for mutually orthogonal unit
// vectors u, an orthogonal projector whose trace is its rank.
func removedDirections(p *mat.Dense) int {
	n := p.Rows()
	tr := 0.0
	for i := 0; i < n; i++ {
		tr += p.At(i, i)
	}
	return n - int(math.Round(tr))
}

func TestFitDefeatsFreshAdversary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, prot := leakyData(rng, 300)

	model, err := Fit(x, prot, Options{})
	if err != nil {
		t.Fatal(err)
	}

	rawAdv, err := linmodel.FitLogistic(x, prot, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	rawAcc := metrics.Accuracy(rawAdv.PredictProba(x), prot)
	if rawAcc < 0.9 {
		t.Fatalf("setup broken: raw adversary accuracy %v should be high", rawAcc)
	}

	censored := project(t, model, x)
	cenAdv, err := linmodel.FitLogistic(censored, prot, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	cenAcc := metrics.Accuracy(cenAdv.PredictProba(censored), prot)
	// A fresh linear adversary must be near the base rate (0.5 here).
	if cenAcc > 0.6 {
		t.Fatalf("censoring failed: fresh adversary accuracy %v", cenAcc)
	}
	if removedDirections(model.P) == 0 {
		t.Fatal("expected at least one projection round")
	}
}

func TestFitKeepsNonLeakyStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, prot := leakyData(rng, 200)
	model, err := Fit(x, prot, Options{})
	if err != nil {
		t.Fatal(err)
	}
	censored := project(t, model, x)
	// The projection removes few directions, so the non-leaky features
	// (columns 2 and 3) must remain strongly correlated with their
	// originals.
	for _, f := range []int{2, 3} {
		orig := x.Col(f)
		kept := censored.Col(f)
		var dot, normA, normB float64
		for i := range orig {
			dot += orig[i] * kept[i]
			normA += orig[i] * orig[i]
			normB += kept[i] * kept[i]
		}
		if corr := dot / math.Sqrt(normA*normB); corr < 0.8 {
			t.Fatalf("column %d correlation %v, want ≥ 0.8", f, corr)
		}
	}
}

func TestFitProjectionIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, prot := leakyData(rng, 120)
	model, err := Fit(x, prot, Options{})
	if err != nil {
		t.Fatal(err)
	}
	once := project(t, model, x)
	twice := project(t, model, once)
	if !mat.Equalish(once, twice, 1e-8) {
		t.Fatal("projection must be idempotent")
	}
}

func TestFitSingleClassIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, _ := leakyData(rng, 40)
	prot := make([]bool, 40) // nobody protected
	model, err := Fit(x, prot, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(model.P, mat.Identity(x.Cols()), 0) {
		t.Fatal("single-class censoring must remove no direction")
	}
	if !mat.Equalish(project(t, model, x), x, 1e-12) {
		t.Fatal("single-class censoring must be the identity")
	}
}

func TestFitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, prot := leakyData(rng, 20)
	if _, err := Fit(x, prot[:3], Options{}); err == nil {
		t.Fatal("expected error for flag mismatch")
	}
	if _, err := Fit(mat.NewDense(0, 0), nil, Options{}); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestFitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, prot := leakyData(rng, 80)
	a, err := Fit(x, prot, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(x, prot, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(a.P, b.P, 0) || removedDirections(a.P) != removedDirections(b.P) {
		t.Fatal("procedure must be deterministic")
	}
}

func TestEliminatorRemovesDirection(t *testing.T) {
	u := []float64{1, 0, 0}
	e := eliminator(u)
	v := e.MulVec([]float64{3, 2, 1})
	if v[0] != 0 || v[1] != 2 || v[2] != 1 {
		t.Fatalf("eliminated vector = %v, want [0 2 1]", v)
	}
}
