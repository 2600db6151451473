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
func randomModel(rng *rand.Rand, k, n int) *ifair.Model {
	protos := mat.NewDense(k, n)
	for i := range protos.Data() {
		protos.Data()[i] = rng.NormFloat64()
	}
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = rng.Float64() * 2
	}
	return &ifair.Model{Prototypes: protos, Alpha: alpha, P: 2, Kernel: ifair.ExpKernel}
}

func randomRow(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestFloat64BitIdentity checks, over several random models, that the
// Float64 fused row transform equals, bit for bit, the prototype mix
// Σ_k u_k·v_k of the Float64 memberships. Training calls the same
// Forward; the ifair and lfr package tests check that it does so with
// the parameters Compile serves.
func TestFloat64BitIdentity(t *testing.T) {
	const k, n = 5, 9
	rng := rand.New(rand.NewSource(7))
	for model := 0; model < 6; model++ {
		m := randomModel(rng, k, n)
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
					t.Fatalf("model %d: x̃[%d] = %v, Σ u_k·v_k = %v", model, j, x64[j], mix[j])
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
	m := randomModel(rng, 6, 8)
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
	m := randomModel(rng, 4, 7)
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
				t.Fatalf("row %d cell %d differs from Model.TransformChecked", i, j)
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
				t.Fatalf("workers=%d: cell %d differs from Model.TransformChecked", workers, i)
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
	m := randomModel(rng, 8, 12)
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
	raw := make([]float64, 8)
	for _, alpha := range [][]float64{m.Alpha, nil} {
		if n := testing.AllocsPerRun(100, func() {
			kernel.Forward(m.Prototypes.Data(), alpha, x, raw, u, dst)
		}); n != 0 {
			t.Errorf("Forward(weighted=%v) allocates %v/op, want 0", alpha != nil, n)
		}
	}
}

// FuzzForward checks the row forward pass against its definition for
// any prototype count and width, with fuzzed attribute weights or with
// none (alpha nil, LFR's path). Cell values come from the fuzzed bytes,
// scaled into [−1, 1) (weights into [0, 1)), so every input is finite and
// every distance stays small enough for the naive reference below —
// softmax without the max-shift, math.Exp taken directly — not to
// underflow. Properties: u ≥ 0, Σu = 1, every x̃_j inside the
// prototypes' range in column j, and agreement with the reference to
// 1e-12 relative.
func FuzzForward(f *testing.F) {
	f.Add(uint8(3), uint8(4), false, []byte{1, 200, 37, 90, 128, 5})
	f.Add(uint8(1), uint8(1), true, []byte{255})
	f.Add(uint8(7), uint8(7), false, []byte("prototype mixture"))
	f.Add(uint8(5), uint8(2), true, []byte{})
	f.Add(uint8(6), uint8(5), true, []byte("unweighted squared distances"))
	f.Fuzz(func(t *testing.T, kb, nb uint8, unweighted bool, data []byte) {
		k, n := 1+int(kb%8), 1+int(nb%8)
		next := 0
		cell := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[next%len(data)]
			next++
			return float64(int8(b)) / 128
		}
		protos, alpha, x := make([]float64, k*n), make([]float64, n), make([]float64, n)
		for i := range protos {
			protos[i] = cell()
		}
		for j := range x {
			x[j] = cell()
			alpha[j] = (cell() + 1) / 2
		}
		weights := alpha
		if unweighted {
			weights = nil
			for j := range alpha {
				alpha[j] = 1
			}
		}
		raw, u, xt := make([]float64, k), make([]float64, k), make([]float64, n)
		kernel.Forward(protos, weights, x, raw, u, xt)

		// Naive reference, straight from Defs. 3, 7 and 8.
		wantRaw, wantU, wantX := make([]float64, k), make([]float64, k), make([]float64, n)
		var sum float64
		for kk := 0; kk < k; kk++ {
			for j := 0; j < n; j++ {
				d := x[j] - protos[kk*n+j]
				wantRaw[kk] += alpha[j] * d * d
			}
			wantU[kk] = math.Exp(-wantRaw[kk])
			sum += wantU[kk]
		}
		for kk := range wantU {
			wantU[kk] /= sum
		}
		near := func(got, want, scale float64) bool {
			return math.Abs(got-want) <= 1e-12*scale
		}
		var usum float64
		for kk := 0; kk < k; kk++ {
			if u[kk] < 0 {
				t.Fatalf("u[%d] = %v < 0", kk, u[kk])
			}
			usum += u[kk]
			if !near(raw[kk], wantRaw[kk], math.Abs(wantRaw[kk])) {
				t.Fatalf("raw[%d] = %v, reference %v", kk, raw[kk], wantRaw[kk])
			}
			if !near(u[kk], wantU[kk], wantU[kk]) {
				t.Fatalf("u[%d] = %v, reference %v", kk, u[kk], wantU[kk])
			}
		}
		if math.Abs(usum-1) > 1e-12*float64(k) {
			t.Fatalf("Σu = %v, want 1", usum)
		}
		for j := 0; j < n; j++ {
			lo, hi, scale := math.Inf(1), math.Inf(-1), 0.0
			for kk := 0; kk < k; kk++ {
				v := protos[kk*n+j]
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				wantX[j] += wantU[kk] * v
				scale += wantU[kk] * math.Abs(v)
			}
			if tol := 1e-12 * float64(k) * math.Max(math.Abs(lo), math.Abs(hi)); xt[j] < lo-tol || xt[j] > hi+tol {
				t.Fatalf("x̃[%d] = %v outside the prototype range [%v, %v]", j, xt[j], lo, hi)
			}
			if !near(xt[j], wantX[j], scale) {
				t.Fatalf("x̃[%d] = %v, reference %v", j, xt[j], wantX[j])
			}
		}
	})
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
	good := kernel.Spec{Prototypes: protos}
	cases := []struct {
		name string
		spec kernel.Spec
	}{
		{"nil prototypes", kernel.Spec{}},
		{"empty prototypes", kernel.Spec{Prototypes: mat.NewDense(0, 0)}},
		{"alpha length", kernel.Spec{Prototypes: protos, Alpha: []float64{1}}},
		{"negative alpha", kernel.Spec{Prototypes: protos, Alpha: []float64{1, -1, 1}}},
		{"nan alpha", kernel.Spec{Prototypes: protos, Alpha: []float64{1, math.NaN(), 1}}},
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
	if _, err := kernel.Compile(kernel.Spec{Prototypes: nonFinite}); err == nil {
		t.Error("Compile accepted non-finite prototypes")
	}
}

// TestDimensionErrors verifies every *Into method rejects mis-sized
// inputs and destinations with errors, not corruption.
func TestDimensionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := randomModel(rng, 3, 4)
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
