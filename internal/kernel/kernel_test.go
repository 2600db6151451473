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
// parameters (the regime the float32 tolerance is documented for).
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
// bit for bit, the prototype mix Σ_k u_k·v_k of the Float64 memberships,
// and the Float32 dtype must stay within the documented tolerance of the
// Float64 memberships and transforms. The Float64 path itself is pinned
// to the training forward passes by the ifair and lfr package tests.
func TestFloat64BitIdentity(t *testing.T) {
	const k, n, tol = 5, 9, 2e-3
	rng := rand.New(rand.NewSource(7))
	for _, membership := range []ifair.Kernel{ifair.ExpKernel, ifair.InverseKernel} {
		for _, p := range []float64{2, 1.5, 3} {
			for _, takeRoot := range []bool{false, true} {
				m := randomModel(rng, k, n, p, takeRoot, membership)
				k64, err := m.Compile(kernel.Float64)
				if err != nil {
					t.Fatalf("Compile(Float64): %v", err)
				}
				k32, err := m.Compile(kernel.Float32)
				if err != nil {
					t.Fatalf("Compile(Float32): %v", err)
				}
				u64, u32 := make([]float64, k), make([]float64, k)
				x64, x32, mix := make([]float64, n), make([]float64, n), make([]float64, n)
				for trial := 0; trial < 20; trial++ {
					x := randomRow(rng, n)
					for _, c := range []struct {
						kern *kernel.CompiledKernel
						u, x []float64
					}{{k64, u64, x64}, {k32, u32, x32}} {
						if err := c.kern.ProbabilitiesInto(c.u, x); err != nil {
							t.Fatalf("%v ProbabilitiesInto: %v", c.kern.DType(), err)
						}
						if err := c.kern.TransformRowInto(c.x, x); err != nil {
							t.Fatalf("%v TransformRowInto: %v", c.kern.DType(), err)
						}
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
						if d := math.Abs(x32[j] - x64[j]); d > tol {
							t.Fatalf("kernel=%v p=%v root=%v: |x̃32[%d]−x̃64[%d]| = %v, want ≤ %v",
								membership, p, takeRoot, j, j, d, tol)
						}
					}
					for j := range u64 {
						if d := math.Abs(u32[j] - u64[j]); d > tol {
							t.Fatalf("kernel=%v p=%v root=%v: |u32[%d]−u64[%d]| = %v, want ≤ %v",
								membership, p, takeRoot, j, j, d, tol)
						}
					}
				}
			}
		}
	}
}

// TestTransformIntoWorkerDeterminism verifies the batched transform is
// bit-identical for every worker count, for both dtypes — the
// internal/par determinism contract extended to the serving kernel.
func TestTransformIntoWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomModel(rng, 6, 8, 2, false, ifair.ExpKernel)
	x := mat.NewDense(37, 8)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	for _, dtype := range []kernel.DType{kernel.Float64, kernel.Float32} {
		ck, err := m.Compile(dtype)
		if err != nil {
			t.Fatalf("Compile(%v): %v", dtype, err)
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
					t.Fatalf("dtype=%v workers=%d: cell %d = %v, want %v", dtype, workers, i, v, ref.Data()[i])
				}
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

// TestFloat32Parity asserts the documented tolerance of the float32
// representation against the float64 path, across random models and
// records — including the fused-norm fast path (p=2, no root) and the
// general fallback.
func TestFloat32Parity(t *testing.T) {
	const tol = 2e-3
	rng := rand.New(rand.NewSource(17))
	for _, membership := range []ifair.Kernel{ifair.ExpKernel, ifair.InverseKernel} {
		for _, p := range []float64{2, 3} {
			for trial := 0; trial < 10; trial++ {
				m := randomModel(rng, 6, 10, p, false, membership)
				k64, err := m.Compile(kernel.Float64)
				if err != nil {
					t.Fatalf("Compile(Float64): %v", err)
				}
				k32, err := m.Compile(kernel.Float32)
				if err != nil {
					t.Fatalf("Compile(Float32): %v", err)
				}
				for r := 0; r < 10; r++ {
					x := randomRow(rng, 10)
					want := make([]float64, 10)
					got := make([]float64, 10)
					if err := k64.TransformRowInto(want, x); err != nil {
						t.Fatalf("float64 TransformRowInto: %v", err)
					}
					if err := k32.TransformRowInto(got, x); err != nil {
						t.Fatalf("float32 TransformRowInto: %v", err)
					}
					for j := range want {
						if d := math.Abs(got[j] - want[j]); d > tol {
							t.Fatalf("kernel=%v p=%v: |x̃32[%d]−x̃64[%d]| = %v, want ≤ %v", membership, p, j, j, d, tol)
						}
					}
				}
			}
		}
	}
}

// TestKernelZeroAlloc is the allocation regression test for the fused
// serving path: per-row and single-worker batched transforms must not
// touch the allocator in steady state, for either dtype.
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
	for _, dtype := range []kernel.DType{kernel.Float64, kernel.Float32} {
		ck, err := m.Compile(dtype)
		if err != nil {
			t.Fatalf("Compile(%v): %v", dtype, err)
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
			t.Errorf("dtype=%v: TransformRowInto allocates %v/op, want 0", dtype, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := ck.ProbabilitiesInto(u, x); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("dtype=%v: ProbabilitiesInto allocates %v/op, want 0", dtype, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := ck.TransformInto(dstM, xm, 1); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("dtype=%v: TransformInto(workers=1) allocates %v/op, want 0", dtype, n)
		}
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
		dt   kernel.DType
	}{
		{"nil prototypes", kernel.Spec{P: 2}, kernel.Float64},
		{"alpha length", kernel.Spec{Prototypes: protos, Alpha: []float64{1}, P: 2}, kernel.Float64},
		{"negative alpha", kernel.Spec{Prototypes: protos, Alpha: []float64{1, -1, 1}, P: 2}, kernel.Float64},
		{"nan alpha", kernel.Spec{Prototypes: protos, Alpha: []float64{1, math.NaN(), 1}, P: 2}, kernel.Float64},
		{"p below one", kernel.Spec{Prototypes: protos, P: 0.5}, kernel.Float64},
		{"bad membership", kernel.Spec{Prototypes: protos, P: 2, Membership: 9}, kernel.Float64},
		{"bad dtype", good, kernel.DType(9)},
	}
	for _, tc := range cases {
		if _, err := kernel.Compile(tc.spec, tc.dt); err == nil {
			t.Errorf("%s: Compile accepted an invalid spec", tc.name)
		}
	}
	if _, err := kernel.Compile(good, kernel.Float64); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	nonFinite := mat.NewDense(2, 3)
	nonFinite.Set(1, 2, math.Inf(1))
	if _, err := kernel.Compile(kernel.Spec{Prototypes: nonFinite, P: 2}, kernel.Float64); err == nil {
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
