package ifair

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/mat"
)

func fittedModel(t *testing.T, seed int64) (*Model, *mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := randomData(rng, 30, 4)
	model, err := Fit(x, Options{K: 3, Lambda: 1, Mu: 0.1, Seed: seed, MaxIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	return model, x
}

// mustProbabilities, mustTransformRow and mustTransform call the checked
// model methods and fail the test on error.
func mustProbabilities(t *testing.T, m *Model, x []float64) []float64 {
	t.Helper()
	u, err := m.ProbabilitiesChecked(x)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func mustTransformRow(t *testing.T, m *Model, x []float64) []float64 {
	t.Helper()
	out, err := m.TransformRowChecked(x)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustTransform(t *testing.T, m *Model, x *mat.Dense) *mat.Dense {
	t.Helper()
	out, err := m.TransformChecked(x)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestProbabilitiesSumToOne(t *testing.T) {
	model, x := fittedModel(t, 1)
	for i := 0; i < x.Rows(); i++ {
		u := mustProbabilities(t, model, x.Row(i))
		var sum float64
		for _, p := range u {
			if p < 0 || p > 1 {
				t.Fatalf("probability %v out of [0,1]", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

// Property: the transformed record lies in the convex hull of the
// prototypes, so each coordinate is bounded by the prototype extremes.
func TestTransformInConvexHull(t *testing.T) {
	model, x := fittedModel(t, 2)
	k, n := model.K(), model.Dims()
	for i := 0; i < x.Rows(); i++ {
		xt := mustTransformRow(t, model, x.Row(i))
		for j := 0; j < n; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for kk := 0; kk < k; kk++ {
				v := model.Prototypes.At(kk, j)
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			if xt[j] < lo-1e-9 || xt[j] > hi+1e-9 {
				t.Fatalf("coordinate %v outside prototype hull [%v, %v]", xt[j], lo, hi)
			}
		}
	}
}

func TestTransformMatchesTransformRow(t *testing.T) {
	model, x := fittedModel(t, 3)
	xt := mustTransform(t, model, x)
	for i := 0; i < x.Rows(); i++ {
		row := mustTransformRow(t, model, x.Row(i))
		for j := range row {
			if xt.At(i, j) != row[j] {
				t.Fatal("TransformChecked disagrees with TransformRowChecked")
			}
		}
	}
}

func TestCheckedVariantsReportDimensionMismatch(t *testing.T) {
	model, _ := fittedModel(t, 11)
	bad := make([]float64, model.Dims()+3)
	if _, err := model.ProbabilitiesChecked(bad); err == nil {
		t.Fatal("ProbabilitiesChecked: expected error for wrong width")
	}
	if _, err := model.TransformRowChecked(bad); err == nil {
		t.Fatal("TransformRowChecked: expected error for wrong width")
	}
	if _, err := model.TransformChecked(mat.NewDense(2, model.Dims()-1)); err == nil {
		t.Fatal("TransformChecked: expected error for wrong width")
	}
	if err := model.TransformInto(mat.NewDense(2, model.Dims()), mat.NewDense(2, model.Dims()+1), 4); err == nil {
		t.Fatal("TransformInto: expected error for wrong width")
	}
	if err := model.TransformInto(mat.NewDense(3, model.Dims()), mat.NewDense(2, model.Dims()), 4); err == nil {
		t.Fatal("TransformInto: expected error for a mis-sized destination")
	}
	invalid := &Model{Prototypes: model.Prototypes, Alpha: model.Alpha[:1], P: 2}
	if _, err := invalid.TransformRowChecked(bad[:model.Dims()]); err == nil {
		t.Fatal("TransformRowChecked: expected error for an invalid model")
	}
}

func TestTransformParallelMatchesSerial(t *testing.T) {
	model, x := fittedModel(t, 12)
	want := mustTransform(t, model, x)
	for _, workers := range []int{1, 2, 3, 8} {
		got := mat.NewDense(x.Rows(), model.Dims())
		if err := model.TransformInto(got, x, workers); err != nil {
			t.Fatal(err)
		}
		if !mat.Equalish(got, want, 0) {
			t.Fatalf("workers=%d: parallel transform differs from serial", workers)
		}
	}
}

func TestValidate(t *testing.T) {
	valid := func() *Model {
		return &Model{
			Prototypes: mat.FromRows([][]float64{{0, 0}, {1, 1}}),
			Alpha:      []float64{1, 1},
			P:          2,
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := map[string]func(*Model){
		"nil prototypes":   func(m *Model) { m.Prototypes = nil },
		"alpha too short":  func(m *Model) { m.Alpha = m.Alpha[:1] },
		"negative alpha":   func(m *Model) { m.Alpha[0] = -1 },
		"nan alpha":        func(m *Model) { m.Alpha[1] = math.NaN() },
		"inf prototype":    func(m *Model) { m.Prototypes.Set(0, 0, math.Inf(1)) },
		"p below one":      func(m *Model) { m.P = 0.5 },
		"p three":          func(m *Model) { m.P = 3 },
		"zero p":           func(m *Model) { m.P = 0 },
		"nan p":            func(m *Model) { m.P = math.NaN() },
		"inf p":            func(m *Model) { m.P = math.Inf(1) },
		"inverse kernel":   func(m *Model) { m.Kernel = Kernel(1) },
		"unknown kernel":   func(m *Model) { m.Kernel = Kernel(9) },
		"negative kernel":  func(m *Model) { m.Kernel = Kernel(-1) },
		"empty prototypes": func(m *Model) { m.Prototypes = mat.NewDense(0, 0) },
	}
	for name, corrupt := range cases {
		m := valid()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

// TestCompileRejectsUnknownDType checks Compile refuses any dtype but
// kernel.Float64, DType(1) included.
func TestCompileRejectsUnknownDType(t *testing.T) {
	valid := func() *Model {
		return &Model{Prototypes: mat.FromRows([][]float64{{0, 0}, {1, 1}}), Alpha: []float64{1, 1}, P: 2}
	}
	if _, err := valid().Compile(kernel.Float64); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	for _, dt := range []kernel.DType{1, 9} {
		if _, err := valid().Compile(dt); err == nil {
			t.Errorf("dtype %d: Compile accepted an unknown dtype", dt)
		}
	}
}

// Property: a record coincident with one prototype and far from the others
// gets nearly all probability mass on that prototype.
func TestProbabilitiesConcentrateOnNearestPrototype(t *testing.T) {
	protos := mat.FromRows([][]float64{
		{0, 0},
		{10, 10},
	})
	model := &Model{Prototypes: protos, Alpha: []float64{1, 1}, P: 2}
	u := mustProbabilities(t, model, []float64{0, 0})
	if u[0] < 0.999 {
		t.Fatalf("u = %v, want mass on prototype 0", u)
	}
}

// Property: with zero α-weight on a coordinate, changing that coordinate
// does not change the representation at all. This is the mechanism behind
// iFair-b's protected-attribute invariance.
func TestZeroWeightCoordinateInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		protos := randomData(rng, 3, 3)
		model := &Model{Prototypes: protos, Alpha: []float64{1, 1, 0}, P: 2}
		a := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		b := append([]float64(nil), a...)
		b[2] = rng.NormFloat64() * 100 // change only the zero-weight coordinate
		ta := mustTransformRow(t, model, a)
		tb := mustTransformRow(t, model, b)
		for j := range ta {
			if math.Abs(ta[j]-tb[j]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
