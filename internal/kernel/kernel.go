// Package kernel is the pluggable compute-kernel API of the serving
// path. A fitted model's parameters are compiled once into an immutable
// CompiledKernel; the kernel then exposes allocation-free
// destination-passing transforms (TransformRowInto, ProbabilitiesInto,
// TransformInto) that the micro-batcher and the HTTP handlers run per
// request. Compilation separates the per-model work (validating and
// laying parameters out contiguously) from the per-row work, so the hot
// loop touches exactly one contiguous parameter block and no allocator.
//
// Forward is the one implementation of the row map itself (Defs. 3, 7
// and 8: α-weighted squared distances, softmax memberships, prototype
// mix).
// CompiledKernel calls it per served row, and the iFair and LFR training
// objectives call it per record, so a compiled kernel's output is
// bit-identical to what training optimised, for every worker count.
//
// Aliasing contract (shared by every *Into method in this package): dst
// is fully overwritten, must not alias the input x, and is owned by the
// caller — the kernel never retains it after the call returns. Internal
// scratch comes from a per-kernel sync.Pool and never escapes, so a
// kernel is safe for concurrent use and steady-state calls perform zero
// heap allocations (TransformInto spawns goroutines, and therefore
// allocates, only when workers > 1).
package kernel

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
	"repro/internal/par"
)

// DType names a numeric representation. Float64 is the only one; the
// type remains as the parameter of ifair.Model.Compile.
type DType uint8

// Float64 is the float64 representation every kernel is compiled to.
const Float64 DType = 0

// Kernel is the per-row compute interface the serving tier consumes.
// Implementations are immutable after compilation and safe for
// concurrent use; all methods follow the package aliasing contract.
type Kernel interface {
	// Dims returns the input dimensionality.
	Dims() int
	// OutDims returns the output dimensionality of TransformRowInto.
	OutDims() int
	// TransformRowInto writes the transformed record x into dst, which
	// must have length OutDims and must not alias x.
	TransformRowInto(dst, x []float64) error
	// TransformInto transforms every row of x into the matching row of
	// dst using up to workers goroutines. Rows are chunk-exclusive, so
	// the result is bit-identical for every worker count. dst must be
	// x.Rows()×OutDims and must not share backing storage with x.
	TransformInto(dst, x *mat.Dense, workers int) error
}

// Spec describes a prototype-mixture kernel to compile: K prototype
// vectors and an optional attribute weight vector for the distance.
type Spec struct {
	// Prototypes is the K×N prototype matrix (copied at compile time).
	Prototypes *mat.Dense
	// Alpha is the non-negative attribute weight vector of the distance
	// (length N); nil means unweighted (all ones). LFR compiles with nil
	// and its training objective passes nil to Forward.
	Alpha []float64
}

// scratch is the pooled per-call workspace of a CompiledKernel. Every
// field is sized at compile time, so Get never grows a slice.
type scratch struct {
	raw, u []float64 // K distances, memberships
}

// CompiledKernel is an immutable prototype-mixture kernel: the model
// parameters laid out contiguously for the fused per-row loop. Compile
// once per model (the registry does this per loaded entry); the kernel
// itself is safe for concurrent use and allocation-free per call.
type CompiledKernel struct {
	k, n int

	// A contiguous row-major K×N prototype copy and the (possibly nil)
	// weight vector.
	protos []float64
	alpha  []float64

	pool sync.Pool // *scratch
}

// Compile validates spec and lays it out as an immutable kernel. The
// spec's prototype matrix and alpha slice are copied; mutating them
// afterwards does not affect the kernel.
func Compile(spec Spec) (*CompiledKernel, error) {
	if spec.Prototypes == nil {
		return nil, fmt.Errorf("kernel: spec has no prototypes")
	}
	k, n := spec.Prototypes.Dims()
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("kernel: invalid prototype dimensions %d×%d", k, n)
	}
	if spec.Alpha != nil && len(spec.Alpha) != n {
		return nil, fmt.Errorf("kernel: alpha length %d does not match N=%d", len(spec.Alpha), n)
	}
	for i, a := range spec.Alpha {
		if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
			return nil, fmt.Errorf("kernel: invalid attribute weight alpha[%d]=%v", i, a)
		}
	}
	for i, v := range spec.Prototypes.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("kernel: non-finite prototype entry %d: %v", i, v)
		}
	}

	ck := &CompiledKernel{
		k: k, n: n,
		protos: append([]float64(nil), spec.Prototypes.Data()...),
	}
	if spec.Alpha != nil {
		ck.alpha = append([]float64(nil), spec.Alpha...)
	}
	ck.pool.New = func() any {
		return &scratch{raw: make([]float64, k), u: make([]float64, k)}
	}
	return ck, nil
}

// K returns the number of prototypes.
func (ck *CompiledKernel) K() int { return ck.k }

// Dims returns the input dimensionality.
func (ck *CompiledKernel) Dims() int { return ck.n }

// OutDims returns the output dimensionality (equal to Dims: the
// transform is a convex combination of prototypes).
func (ck *CompiledKernel) OutDims() int { return ck.n }

func (ck *CompiledKernel) checkRow(x []float64) error {
	if len(x) != ck.n {
		return fmt.Errorf("kernel: record has %d attributes, kernel expects %d", len(x), ck.n)
	}
	return nil
}

// Forward is the row forward pass of Defs. 3, 7 and 8, the one
// implementation of the map that serving and both training objectives
// call. For record x (length N) and the K prototypes laid out row-major
// in protos (K×N) it writes
//
//   - raw[k] = Σ_n α_n·(x_n − v_kn)², the Def. 7 distance in its rootless
//     p = 2 form (alpha nil means all ones, as used by LFR);
//   - u = softmax(−raw), with a max-shift (Def. 8);
//   - xt = Σ_k u_k·v_k (Def. 3), when xt is non-nil.
//
// raw and u have length K and xt length N; none of them may alias x or
// protos. Forward is stateless and allocates nothing; its operation
// order is fixed, so the same inputs give the same bits on every path.
func Forward(protos, alpha, x, raw, u, xt []float64) {
	n := len(x)
	for k := range raw {
		v := protos[k*n : (k+1)*n]
		var s float64
		if alpha == nil {
			for j := range x {
				d := x[j] - v[j]
				s += d * d
			}
		} else {
			for j := range x {
				d := x[j] - v[j]
				s += alpha[j] * d * d
			}
		}
		raw[k] = s
	}
	maxZ := math.Inf(-1)
	for k, s := range raw {
		u[k] = -s
		if -s > maxZ {
			maxZ = -s
		}
	}
	var sum float64
	for k := range u {
		u[k] = math.Exp(u[k] - maxZ)
		sum += u[k]
	}
	for k := range u {
		u[k] /= sum
	}
	if xt == nil {
		return
	}
	for j := range xt {
		xt[j] = 0
	}
	for k, uk := range u {
		for j, v := range protos[k*n : (k+1)*n] {
			xt[j] += uk * v
		}
	}
}

// ProbabilitiesInto writes the membership distribution of x into dst
// (length K). dst must not alias x; it is fully overwritten and never
// retained.
func (ck *CompiledKernel) ProbabilitiesInto(dst, x []float64) error {
	if err := ck.checkRow(x); err != nil {
		return err
	}
	if len(dst) != ck.k {
		return fmt.Errorf("kernel: destination has %d cells, want K=%d", len(dst), ck.k)
	}
	s := ck.pool.Get().(*scratch)
	Forward(ck.protos, ck.alpha, x, s.raw, dst, nil)
	ck.pool.Put(s)
	return nil
}

// TransformRowInto writes the transformed record x̃ = Σ_k u_k·v_k into
// dst (length Dims). dst must not alias x; it is fully overwritten and
// never retained.
func (ck *CompiledKernel) TransformRowInto(dst, x []float64) error {
	if err := ck.checkRow(x); err != nil {
		return err
	}
	if len(dst) != ck.n {
		return fmt.Errorf("kernel: destination has %d cells, want N=%d", len(dst), ck.n)
	}
	s := ck.pool.Get().(*scratch)
	Forward(ck.protos, ck.alpha, x, s.raw, s.u, dst)
	ck.pool.Put(s)
	return nil
}

// TransformInto transforms every row of x into the matching row of dst
// using up to workers goroutines. Each output row is written by exactly
// one goroutine with the same per-row arithmetic as TransformRowInto,
// so the result is bit-identical for every worker count. dst must be
// x.Rows()×Dims and must not share backing storage with x; it is fully
// overwritten and never retained. workers ≤ 1 runs inline and performs
// zero allocations.
func (ck *CompiledKernel) TransformInto(dst, x *mat.Dense, workers int) error {
	rows, cols := x.Dims()
	if cols != ck.n {
		return fmt.Errorf("kernel: data has %d attributes, kernel expects %d", cols, ck.n)
	}
	if dr, dc := dst.Dims(); dr != rows || dc != ck.n {
		return fmt.Errorf("kernel: destination is %d×%d, want %d×%d", dr, dc, rows, ck.n)
	}
	if workers <= 1 {
		s := ck.pool.Get().(*scratch)
		for i := 0; i < rows; i++ {
			Forward(ck.protos, ck.alpha, x.Row(i), s.raw, s.u, dst.Row(i))
		}
		ck.pool.Put(s)
		return nil
	}
	par.Chunks(rows).Run(workers, func(_, lo, hi int) {
		s := ck.pool.Get().(*scratch)
		for i := lo; i < hi; i++ {
			Forward(ck.protos, ck.alpha, x.Row(i), s.raw, s.u, dst.Row(i))
		}
		ck.pool.Put(s)
	})
	return nil
}
