// Package kernel is the pluggable compute-kernel API of the serving
// path. A fitted model's parameters are compiled once into an immutable
// CompiledKernel; the kernel then exposes allocation-free
// destination-passing transforms (TransformRowInto, ProbabilitiesInto,
// TransformInto) that the micro-batcher and the HTTP handlers run per
// request. Compilation separates the per-model work (validating and
// laying parameters out contiguously) from the per-row work, so the hot
// loop touches exactly one contiguous parameter block and no allocator.
//
// A kernel has one representation, float64, and reproduces the
// training-side arithmetic bit-for-bit: distances, memberships and
// prototype mixes are computed in exactly the operation order of the
// iFair and LFR training forward passes, so a compiled kernel's output
// is bit-identical to what training optimised, for every worker count.
// This package is the only inference implementation of that map; the
// ifair and lfr tests pin it to the forward passes.
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

// Membership selects how prototype distances become membership weights.
type Membership uint8

const (
	// Exp is the softmax weighting u_k ∝ exp(−d_k) (iFair Def. 8, LFR).
	Exp Membership = iota
	// Inverse is the heavy-tailed weighting u_k ∝ 1/(1+d_k).
	Inverse
)

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
// vectors, an optional attribute weight vector for the distance, the
// Minkowski exponent, and the membership weighting.
type Spec struct {
	// Prototypes is the K×N prototype matrix (copied at compile time).
	Prototypes *mat.Dense
	// Alpha is the non-negative attribute weight vector of the distance
	// (length N); nil means unweighted (all ones), as used by LFR.
	Alpha []float64
	// P is the Minkowski exponent (≥ 1; 2 is the fast path).
	P float64
	// TakeRoot applies the 1/p root to distances.
	TakeRoot bool
	// Membership selects Exp (softmax) or Inverse weighting.
	Membership Membership
}

// scratch is the pooled per-call workspace of a CompiledKernel. Every
// field is sized at compile time, so Get never grows a slice.
type scratch struct {
	u []float64 // K membership weights
}

// CompiledKernel is an immutable prototype-mixture kernel: the model
// parameters laid out contiguously for the fused per-row loop. Compile once per model (the registry does
// this per loaded entry); the kernel itself is safe for concurrent use
// and allocation-free per call.
type CompiledKernel struct {
	k, n       int
	p          float64
	takeRoot   bool
	membership Membership

	// A contiguous row-major K×N prototype copy and the (possibly nil)
	// weight vector, evaluated in exactly the training-side operation
	// order.
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
	p := spec.P
	if p == 0 {
		p = 2
	}
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 1 {
		return nil, fmt.Errorf("kernel: minkowski exponent p=%v, want p ≥ 1", p)
	}
	if spec.Membership != Exp && spec.Membership != Inverse {
		return nil, fmt.Errorf("kernel: unknown membership weighting %d", spec.Membership)
	}

	ck := &CompiledKernel{
		k: k, n: n, p: p, takeRoot: spec.TakeRoot,
		membership: spec.Membership,
		protos:     append([]float64(nil), spec.Prototypes.Data()...),
	}
	if spec.Alpha != nil {
		ck.alpha = append([]float64(nil), spec.Alpha...)
	}
	ck.pool.New = func() any { return &scratch{u: make([]float64, ck.k)} }
	return ck, nil
}

// K returns the number of prototypes.
func (ck *CompiledKernel) K() int { return ck.k }

// Dims returns the input dimensionality.
func (ck *CompiledKernel) Dims() int { return ck.n }

// OutDims returns the output dimensionality (equal to Dims: the
// transform is a convex combination of prototypes).
func (ck *CompiledKernel) OutDims() int { return ck.n }

// proto returns prototype row i.
func (ck *CompiledKernel) proto(i int) []float64 {
	return ck.protos[i*ck.n : (i+1)*ck.n]
}

func (ck *CompiledKernel) checkRow(x []float64) error {
	if len(x) != ck.n {
		return fmt.Errorf("kernel: record has %d attributes, kernel expects %d", len(x), ck.n)
	}
	return nil
}

// dist is the weighted Minkowski distance in the exact operation
// order of the iFair training forward pass (rawDistance, then the
// optional 1/p root); a nil alpha matches LFR's unweighted mat.SqDist.
func (ck *CompiledKernel) dist(x, v []float64) float64 {
	var s float64
	if ck.p == 2 {
		if ck.alpha == nil {
			for j := range x {
				d := x[j] - v[j]
				s += d * d
			}
		} else {
			for j := range x {
				d := x[j] - v[j]
				s += ck.alpha[j] * d * d
			}
		}
	} else {
		if ck.alpha == nil {
			for j := range x {
				s += math.Pow(math.Abs(x[j]-v[j]), ck.p)
			}
		} else {
			for j := range x {
				s += ck.alpha[j] * math.Pow(math.Abs(x[j]-v[j]), ck.p)
			}
		}
	}
	if ck.takeRoot {
		return math.Pow(s, 1/ck.p)
	}
	return s
}

// membershipsInto writes the membership distribution of x into u
// (length k), mirroring the memberships of the iFair and LFR training
// forward passes bit for bit.
func (ck *CompiledKernel) membershipsInto(u, x []float64) {
	switch ck.membership {
	case Inverse:
		var sum float64
		for j := 0; j < ck.k; j++ {
			d := ck.dist(x, ck.proto(j))
			u[j] = 1 / (1 + d)
			sum += u[j]
		}
		for j := range u {
			u[j] /= sum
		}
	default: // Exp
		maxZ := math.Inf(-1)
		for j := 0; j < ck.k; j++ {
			z := -ck.dist(x, ck.proto(j))
			u[j] = z
			if z > maxZ {
				maxZ = z
			}
		}
		var sum float64
		for j := range u {
			u[j] = math.Exp(u[j] - maxZ)
			sum += u[j]
		}
		for j := range u {
			u[j] /= sum
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
	ck.membershipsInto(dst, x)
	return nil
}

// transformRowInto runs the fused membership + prototype-mix for one
// record using the given scratch.
func (ck *CompiledKernel) transformRowInto(s *scratch, dst, x []float64) {
	ck.membershipsInto(s.u, x)
	for j := range dst {
		dst[j] = 0
	}
	for i, ui := range s.u {
		row := ck.proto(i)
		for j, v := range row {
			dst[j] += ui * v
		}
	}
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
	ck.transformRowInto(s, dst, x)
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
			ck.transformRowInto(s, dst.Row(i), x.Row(i))
		}
		ck.pool.Put(s)
		return nil
	}
	par.Chunks(rows).Run(workers, func(_, lo, hi int) {
		s := ck.pool.Get().(*scratch)
		for i := lo; i < hi; i++ {
			ck.transformRowInto(s, dst.Row(i), x.Row(i))
		}
		ck.pool.Put(s)
	})
	return nil
}
