package kernel_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ifair"
	"repro/internal/kernel"
	"repro/internal/mat"
)

// randomModel builds a valid fitted-looking model with standardised-scale
// parameters.
func randomModel(rng *rand.Rand, k, n int, p float64, takeRoot bool, kern ifair.Kernel) *ifair.Model {
	protos := mat.NewDense(k, n)
	for i := range protos.Data() {
		protos.Data()[i] = rng.NormFloat64()
	}
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = rng.Float64() * 2
	}
	return &ifair.Model{Prototypes: protos, Alpha: alpha, P: p, TakeRoot: takeRoot, Kernel: kern}
}

func randomRow(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestFloat64BitIdentity sweeps kernels, Minkowski exponents and rooting.
// For each configuration the Float64 fused row transform must equal,
// bit for bit, the prototype mix Σ_k u_k·v_k of the Float64 memberships.
// The Float64 path itself is pinned to the training forward passes by
// the ifair and lfr package tests.
func TestFloat64BitIdentity(t *testing.T) {
	const k, n = 5, 9
	rng := rand.New(rand.NewSource(7))
	for _, membership := range []ifair.Kernel{ifair.ExpKernel, ifair.InverseKernel} {
		for _, p := range []float64{2, 1.5, 3} {
			for _, takeRoot := range []bool{false, true} {
				m := randomModel(rng, k, n, p, takeRoot, membership)
				k64, err := m.Compile(kernel.Float64)
				if err != nil {
					t.Fatalf("Compile(Float64): %v", err)
				}
				u64 := make([]float64, k)
				x64, mix := make([]float64, n), make([]float64, n)
				for trial := 0; trial < 20; trial++ {
					x := randomRow(rng, n)
					if err := k64.ProbabilitiesInto(u64, x); err != nil {
						t.Fatalf("ProbabilitiesInto: %v", err)
					}
					if err := k64.TransformRowInto(x64, x); err != nil {
						t.Fatalf("TransformRowInto: %v", err)
					}
					for j := range mix {
						mix[j] = 0
					}
					for i, ui := range u64 {
						for j, v := range m.Prototypes.Row(i) {
							mix[j] += ui * v
						}
					}
					for j := range mix {
						if x64[j] != mix[j] {
							t.Fatalf("kernel=%v p=%v root=%v: x̃[%d] = %v, Σ u_k·v_k = %v",
								membership, p, takeRoot, j, x64[j], mix[j])
						}
					}
				}
			}
		}
	}
}

// TestTransformIntoWorkerDeterminism verifies the batched transform is
// bit-identical for every worker count — the internal/par determinism
// contract extended to the serving kernel.
func TestTransformIntoWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomModel(rng, 6, 8, 2, false, ifair.ExpKernel)
	x := mat.NewDense(37, 8)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	ck, err := m.Compile(kernel.Float64)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ref := mat.NewDense(37, 8)
	if err := ck.TransformInto(ref, x, 1); err != nil {
		t.Fatalf("TransformInto: %v", err)
	}
	for workers := 2; workers <= 5; workers++ {
		got := mat.NewDense(37, 8)
		if err := ck.TransformInto(got, x, workers); err != nil {
			t.Fatalf("TransformInto(workers=%d): %v", workers, err)
		}
		for i, v := range got.Data() {
			if v != ref.Data()[i] {
				t.Fatalf("workers=%d: cell %d = %v, want %v", workers, i, v, ref.Data()[i])
			}
		}
	}
}

// TestFloat64WorkerIdentityVsModel pins the end-to-end serving guarantee:
// for every worker count the compiled Float64 kernel's batched output is
// bit-identical to the model's checked transform and to the kernel's own
// per-row transform.
func TestFloat64WorkerIdentityVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, membership := range []ifair.Kernel{ifair.ExpKernel, ifair.InverseKernel} {
		m := randomModel(rng, 4, 7, 2, false, membership)
		x := mat.NewDense(23, 7)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		want, err := m.TransformChecked(x)
		if err != nil {
			t.Fatalf("TransformChecked: %v", err)
		}
		ck, err := m.Compile(kernel.Float64)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		row := make([]float64, 7)
		for i := 0; i < x.Rows(); i++ {
			if err := ck.TransformRowInto(row, x.Row(i)); err != nil {
				t.Fatalf("TransformRowInto: %v", err)
			}
			for j, v := range row {
				if v != want.At(i, j) {
					t.Fatalf("kernel=%v: row %d cell %d differs from Model.TransformChecked", membership, i, j)
				}
			}
		}
		for workers := 1; workers <= 5; workers++ {
			got := mat.NewDense(23, 7)
			if err := ck.TransformInto(got, x, workers); err != nil {
				t.Fatalf("TransformInto: %v", err)
			}
			for i, v := range got.Data() {
				if v != want.Data()[i] {
					t.Fatalf("kernel=%v workers=%d: cell %d differs from Model.TransformChecked", membership, workers, i)
				}
			}
		}
	}
}

// TestKernelZeroAlloc is the allocation regression test for the fused
// serving path: per-row and single-worker batched transforms must not
// touch the allocator in steady state.
func TestKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(23))
	m := randomModel(rng, 8, 12, 2, false, ifair.ExpKernel)
	x := randomRow(rng, 12)
	xm := mat.NewDense(16, 12)
	for i := range xm.Data() {
		xm.Data()[i] = rng.NormFloat64()
	}
	ck, err := m.Compile(kernel.Float64)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	dst := make([]float64, 12)
	u := make([]float64, 8)
	dstM := mat.NewDense(16, 12)
	// Warm the scratch pool before measuring.
	_ = ck.TransformRowInto(dst, x)
	if n := testing.AllocsPerRun(100, func() {
		if err := ck.TransformRowInto(dst, x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("TransformRowInto allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := ck.ProbabilitiesInto(u, x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ProbabilitiesInto allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := ck.TransformInto(dstM, xm, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("TransformInto(workers=1) allocates %v/op, want 0", n)
	}
}

// TestProjectionBitIdentity checks the compiled linear projection against
// mat.Mul, bitwise, for every worker count.
func TestProjectionBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := mat.NewDense(6, 6)
	for i := range p.Data() {
		p.Data()[i] = rng.NormFloat64()
	}
	// Exercise the zero-skip branch shared with mat.Mul.
	p.Set(2, 3, 0)
	x := mat.NewDense(19, 6)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	proj, err := kernel.CompileProjection(p)
	if err != nil {
		t.Fatalf("CompileProjection: %v", err)
	}
	want := mat.Mul(x, p)
	for workers := 1; workers <= 4; workers++ {
		got := mat.NewDense(19, 6)
		if err := proj.TransformInto(got, x, workers); err != nil {
			t.Fatalf("TransformInto: %v", err)
		}
		for i, v := range got.Data() {
			if v != want.Data()[i] {
				t.Fatalf("workers=%d: cell %d = %v, mat.Mul says %v", workers, i, v, want.Data()[i])
			}
		}
	}
}

// TestCompileRejectsInvalidSpecs exercises the compile-time validation
// surface.
func TestCompileRejectsInvalidSpecs(t *testing.T) {
	protos := mat.NewDense(2, 3)
	good := kernel.Spec{Prototypes: protos, P: 2}
	cases := []struct {
		name string
		spec kernel.Spec
	}{
		{"nil prototypes", kernel.Spec{P: 2}},
		{"alpha length", kernel.Spec{Prototypes: protos, Alpha: []float64{1}, P: 2}},
		{"negative alpha", kernel.Spec{Prototypes: protos, Alpha: []float64{1, -1, 1}, P: 2}},
		{"nan alpha", kernel.Spec{Prototypes: protos, Alpha: []float64{1, math.NaN(), 1}, P: 2}},
		{"p below one", kernel.Spec{Prototypes: protos, P: 0.5}},
		{"nan p", kernel.Spec{Prototypes: protos, P: math.NaN()}},
		{"infinite p", kernel.Spec{Prototypes: protos, P: math.Inf(1)}},
		{"bad membership", kernel.Spec{Prototypes: protos, P: 2, Membership: 9}},
	}
	for _, tc := range cases {
		if _, err := kernel.Compile(tc.spec); err == nil {
			t.Errorf("%s: Compile accepted an invalid spec", tc.name)
		}
	}
	if _, err := kernel.Compile(good); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	nonFinite := mat.NewDense(2, 3)
	nonFinite.Set(1, 2, math.Inf(1))
	if _, err := kernel.Compile(kernel.Spec{Prototypes: nonFinite, P: 2}); err == nil {
		t.Error("Compile accepted non-finite prototypes")
	}
}

// TestDimensionErrors verifies every *Into method rejects mis-sized
// inputs and destinations with errors, not corruption.
func TestDimensionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := randomModel(rng, 3, 4, 2, false, ifair.ExpKernel)
	ck, err := m.Compile(kernel.Float64)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := ck.TransformRowInto(make([]float64, 4), make([]float64, 5)); err == nil {
		t.Error("TransformRowInto accepted a mis-sized record")
	}
	if err := ck.TransformRowInto(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Error("TransformRowInto accepted a mis-sized destination")
	}
	if err := ck.ProbabilitiesInto(make([]float64, 4), make([]float64, 4)); err == nil {
		t.Error("ProbabilitiesInto accepted a mis-sized destination")
	}
	if err := ck.TransformInto(mat.NewDense(2, 4), mat.NewDense(2, 5), 1); err == nil {
		t.Error("TransformInto accepted mis-sized data")
	}
	if err := ck.TransformInto(mat.NewDense(3, 4), mat.NewDense(2, 4), 1); err == nil {
		t.Error("TransformInto accepted a mis-sized destination")
	}
}
