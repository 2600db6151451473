package ifair

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

func TestInverseKernelProbabilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	protos := randomData(rng, 4, 3)
	model := &Model{Prototypes: protos, Alpha: []float64{1, 1, 1}, P: 2, Kernel: InverseKernel}
	for trial := 0; trial < 20; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		u := mustProbabilities(t, model, x)
		var sum float64
		for _, p := range u {
			if p <= 0 || p > 1 {
				t.Fatalf("probability %v out of (0,1]", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("sum = %v", sum)
		}
	}
}

func TestInverseKernelHeavierTails(t *testing.T) {
	// A record sitting on prototype 0, far from prototype 1: the inverse
	// kernel must keep strictly more mass on the distant prototype than
	// the exponential kernel (polynomial vs exponential decay).
	protos := mat.FromRows([][]float64{{0, 0}, {6, 6}})
	alpha := []float64{1, 1}
	exp := &Model{Prototypes: protos, Alpha: alpha, P: 2, Kernel: ExpKernel}
	inv := &Model{Prototypes: protos, Alpha: alpha, P: 2, Kernel: InverseKernel}
	x := []float64{0, 0}
	if ue, ui := mustProbabilities(t, exp, x)[1], mustProbabilities(t, inv, x)[1]; ui <= ue {
		t.Fatalf("inverse kernel tail mass %v not above exp kernel %v", ui, ue)
	}
}

func TestFitWithInverseKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomData(rng, 30, 3)
	model, err := Fit(x, Options{K: 3, Lambda: 1, Mu: 1, Kernel: InverseKernel, Seed: 1, MaxIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if model.Kernel != InverseKernel {
		t.Fatal("fitted model must record its kernel")
	}
	if math.IsNaN(model.Loss) {
		t.Fatal("NaN loss")
	}
	// Transform must stay inside the prototype hull regardless of kernel.
	xt := mustTransform(t, model, x)
	if r, c := xt.Dims(); r != 30 || c != 3 {
		t.Fatalf("transform dims %d×%d", r, c)
	}
}

func TestFitWithGeneralPAndRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomData(rng, 25, 3)
	for _, opts := range []Options{
		{K: 3, Lambda: 1, Mu: 1, P: 1.5, Seed: 1, MaxIterations: 40},
		{K: 3, Lambda: 1, Mu: 1, P: 3, Seed: 1, MaxIterations: 40},
		{K: 3, Lambda: 1, Mu: 1, P: 2, TakeRoot: true, Seed: 1, MaxIterations: 40},
	} {
		model, err := Fit(x, opts)
		if err != nil {
			t.Fatalf("p=%v root=%v: %v", opts.P, opts.TakeRoot, err)
		}
		if math.IsNaN(model.Loss) || model.Loss < 0 {
			t.Fatalf("p=%v root=%v: loss %v", opts.P, opts.TakeRoot, model.Loss)
		}
	}
}

// TestKernelConsistencyTrainingVsInference guards against the training
// forward pass and Model.ProbabilitiesChecked drifting apart: the memberships the
// objective computes at the optimum must match what the fitted model
// reports.
func TestKernelConsistencyTrainingVsInference(t *testing.T) {
	for _, kernel := range []Kernel{ExpKernel, InverseKernel} {
		rng := rand.New(rand.NewSource(4))
		x := randomData(rng, 12, 3)
		opts := Options{K: 3, Lambda: 1, Mu: 0.5, Kernel: kernel, Seed: 9, MaxIterations: 10}
		model, err := Fit(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := opts.fill(12, 3); err != nil {
			t.Fatal(err)
		}
		obj := newObjective(x, opts, rand.New(rand.NewSource(1)))
		theta := make([]float64, obj.paramLen())
		for j := 0; j < 3; j++ {
			theta[j] = math.Sqrt(model.Alpha[j])
		}
		copy(theta[3:], model.Prototypes.Data())
		obj.lossOnly(theta)
		for i := 0; i < 12; i++ {
			want := mustProbabilities(t, model, x.Row(i))
			got := obj.u.Row(i)
			for kk := range want {
				if math.Abs(want[kk]-got[kk]) > 1e-9 {
					t.Fatalf("kernel %v: membership mismatch at record %d: %v vs %v", kernel, i, got[kk], want[kk])
				}
			}
		}
	}
}

// TestForwardMatchesCompiledKernel pins the compiled Float64 kernel —
// the only inference implementation of Defs. 3, 7 and 8 — to the
// training forward pass, bit for bit: for every membership kernel,
// Minkowski exponent and rooting, the memberships and transforms that
// forwardRecord computes equal ProbabilitiesInto and TransformRowInto.
func TestForwardMatchesCompiledKernel(t *testing.T) {
	const m, n, k = 15, 6, 4
	rng := rand.New(rand.NewSource(21))
	for _, kern := range []Kernel{ExpKernel, InverseKernel} {
		for _, p := range []float64{2, 1.5, 3} {
			for _, takeRoot := range []bool{false, true} {
				x := randomData(rng, m, n)
				model := &Model{Prototypes: randomData(rng, k, n), Alpha: make([]float64, n),
					P: p, TakeRoot: takeRoot, Kernel: kern}
				for j := range model.Alpha {
					model.Alpha[j] = 2 * rng.Float64()
				}
				opts := Options{K: k, Lambda: 1, P: p, TakeRoot: takeRoot, Kernel: kern}
				if err := opts.fill(m, n); err != nil {
					t.Fatal(err)
				}
				obj := newObjective(x, opts, rng)
				ck, err := model.Compile(kernel.Float64)
				if err != nil {
					t.Fatal(err)
				}
				wantU, raw, gv, wantX := make([]float64, k), make([]float64, k), make([]float64, k), make([]float64, n)
				gotU, gotX := make([]float64, k), make([]float64, n)
				for i := 0; i < m; i++ {
					obj.forwardRecord(model.Alpha, model.Prototypes.Data(), x.Row(i), wantU, raw, gv, wantX, nil, false)
					if err := ck.ProbabilitiesInto(gotU, x.Row(i)); err != nil {
						t.Fatal(err)
					}
					if err := ck.TransformRowInto(gotX, x.Row(i)); err != nil {
						t.Fatal(err)
					}
					for j := range wantU {
						if math.Float64bits(gotU[j]) != math.Float64bits(wantU[j]) {
							t.Fatalf("kernel=%v p=%v root=%v record %d: u[%d] = %v, forward pass says %v",
								kern, p, takeRoot, i, j, gotU[j], wantU[j])
						}
					}
					for j := range wantX {
						if math.Float64bits(gotX[j]) != math.Float64bits(wantX[j]) {
							t.Fatalf("kernel=%v p=%v root=%v record %d: x̃[%d] = %v, forward pass says %v",
								kern, p, takeRoot, i, j, gotX[j], wantX[j])
						}
					}
				}
			}
		}
	}
}

func TestKernelString(t *testing.T) {
	if ExpKernel.String() != "exp" || InverseKernel.String() != "inverse" || Kernel(9).String() != "unknown" {
		t.Fatal("kernel strings wrong")
	}
}
