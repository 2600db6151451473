// Package svd implements the thin singular value decomposition used by the
// paper's SVD and SVD-masked baselines (Sec. V-B, citing Halko et al. [14]).
//
// The decomposition is computed via the symmetric Jacobi eigendecomposition
// of the Gram matrix AᵀA, which is accurate and simple for the tall-skinny
// matrices that arise here (M records × N ≤ a few hundred features).
package svd

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// SVD holds the right half of a thin decomposition A = U·diag(S)·Vᵀ: S
// has r non-negative entries in descending order and V is N×r. The
// baselines project onto V alone, so the M×r left factor U = A·V·diag(1/S)
// is not formed.
type SVD struct {
	S []float64
	V *mat.Dense
}

// Compute returns the thin SVD of a. Singular values below rankTol·S[0]
// are dropped; rankTol defaults to 1e-10 when ≤ 0.
func Compute(a *mat.Dense, rankTol float64) *SVD {
	if rankTol <= 0 {
		rankTol = 1e-10
	}
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return &SVD{V: mat.NewDense(n, 0)}
	}
	gram := mat.Mul(a.T(), a) // N×N
	eigvals, eigvecs := mat.EigenSym(gram)

	// Effective rank.
	smax := math.Sqrt(math.Max(eigvals[0], 0))
	r := 0
	for _, ev := range eigvals {
		if ev <= 0 {
			break
		}
		if s := math.Sqrt(ev); s > rankTol*smax && s > 0 {
			r++
		} else {
			break
		}
	}

	s := make([]float64, r)
	v := mat.NewDense(n, r)
	for k := 0; k < r; k++ {
		s[k] = math.Sqrt(eigvals[k])
		col := eigvecs.Col(k)
		for i := 0; i < n; i++ {
			v.Set(i, k, col[i])
		}
	}
	return &SVD{S: s, V: v}
}

// Rank returns the number of retained singular values.
func (d *SVD) Rank() int { return len(d.S) }

// Basis returns the first k right singular vectors as an N×k matrix. If k
// exceeds the rank, all retained vectors are returned.
func (d *SVD) Basis(k int) *mat.Dense {
	if k < 0 {
		panic(fmt.Sprintf("svd: negative rank %d", k))
	}
	if k > d.Rank() {
		k = d.Rank()
	}
	n, _ := d.V.Dims()
	out := mat.NewDense(n, k)
	for i := 0; i < n; i++ {
		copy(out.Row(i), d.V.Row(i)[:k])
	}
	return out
}

// ApplyRank projects new data x (M'×N) onto the fitted rank-k subspace and
// reconstructs it in the original space: x·V_k·V_kᵀ. This is how the SVD
// baselines transform held-out validation and test records.
func (d *SVD) ApplyRank(x *mat.Dense, k int) *mat.Dense {
	basis := d.Basis(k)
	return mat.Mul(mat.Mul(x, basis), basis.T())
}
