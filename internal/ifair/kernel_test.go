package ifair

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
)

// TestKernelConsistencyTrainingVsInference guards against the training
// forward pass and Model.ProbabilitiesChecked drifting apart: the memberships the
// objective computes at the optimum must match what the fitted model
// reports.
func TestKernelConsistencyTrainingVsInference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomData(rng, 12, 3)
	opts := Options{K: 3, Lambda: 1, Mu: 0.5, Seed: 9, MaxIterations: 10}
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
				t.Fatalf("membership mismatch at record %d: %v vs %v", i, got[kk], want[kk])
			}
		}
	}
}

// TestForwardMatchesCompiledKernel pins the compiled Float64 kernel —
// the only inference implementation of Defs. 3, 7 and 8 — to the
// training forward pass, bit for bit: the memberships and transforms
// that forwardRecord computes equal ProbabilitiesInto and
// TransformRowInto.
func TestForwardMatchesCompiledKernel(t *testing.T) {
	const m, n, k = 15, 6, 4
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		x := randomData(rng, m, n)
		model := &Model{Prototypes: randomData(rng, k, n), Alpha: make([]float64, n), P: 2, Kernel: ExpKernel}
		for j := range model.Alpha {
			model.Alpha[j] = 2 * rng.Float64()
		}
		opts := Options{K: k, Lambda: 1}
		if err := opts.fill(m, n); err != nil {
			t.Fatal(err)
		}
		obj := newObjective(x, opts, rng)
		ck, err := model.Compile(kernel.Float64)
		if err != nil {
			t.Fatal(err)
		}
		wantU, raw, wantX := make([]float64, k), make([]float64, k), make([]float64, n)
		gotU, gotX := make([]float64, k), make([]float64, n)
		for i := 0; i < m; i++ {
			obj.forwardRecord(model.Alpha, model.Prototypes.Data(), x.Row(i), wantU, raw, wantX, nil, false)
			if err := ck.ProbabilitiesInto(gotU, x.Row(i)); err != nil {
				t.Fatal(err)
			}
			if err := ck.TransformRowInto(gotX, x.Row(i)); err != nil {
				t.Fatal(err)
			}
			for j := range wantU {
				if math.Float64bits(gotU[j]) != math.Float64bits(wantU[j]) {
					t.Fatalf("trial %d record %d: u[%d] = %v, forward pass says %v", trial, i, j, gotU[j], wantU[j])
				}
			}
			for j := range wantX {
				if math.Float64bits(gotX[j]) != math.Float64bits(wantX[j]) {
					t.Fatalf("trial %d record %d: x̃[%d] = %v, forward pass says %v", trial, i, j, gotX[j], wantX[j])
				}
			}
		}
	}
}

func TestKernelString(t *testing.T) {
	if ExpKernel.String() != "exp" || Kernel(1).String() != "unknown" || Kernel(9).String() != "unknown" {
		t.Fatal("kernel strings wrong")
	}
}
