package svd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// leftVectors rebuilds the M×r left factor U = A·V·diag(1/S) of a's
// decomposition d.
func leftVectors(a *mat.Dense, d *SVD) *mat.Dense {
	u := mat.Mul(a, d.V)
	for i := 0; i < u.Rows(); i++ {
		row := u.Row(i)
		for k := range row {
			row[k] /= d.S[k]
		}
	}
	return u
}

// Truncate returns the rank-k approximation A_k = U_k·diag(S_k)·V_kᵀ of
// a, the matrix d decomposes, in the original M×N space. If k exceeds the
// rank, the full reconstruction is returned. It is the reference
// ApplyRank is checked against on the training data, and its error
// checks the factors against Eckart–Young.
func (d *SVD) Truncate(a *mat.Dense, k int) *mat.Dense {
	if k < 0 {
		panic(fmt.Sprintf("svd: negative rank %d", k))
	}
	if k > d.Rank() {
		k = d.Rank()
	}
	u := leftVectors(a, d)
	m, _ := u.Dims()
	n, _ := d.V.Dims()
	out := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		urow := u.Row(i)
		orow := out.Row(i)
		for kk := 0; kk < k; kk++ {
			c := urow[kk] * d.S[kk]
			if c == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				orow[j] += c * d.V.At(j, kk)
			}
		}
	}
	return out
}

func randomMatrix(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func TestComputeReconstructsExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 8, 5)
		d := Compute(a, 0)
		return mat.Equalish(d.Truncate(a, d.Rank()), a, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSingularValuesSortedNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Compute(randomMatrix(rng, 10, 6), 0)
		for i, s := range d.S {
			if s < 0 {
				return false
			}
			if i > 0 && s > d.S[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUOrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 12, 5)
	d := Compute(a, 0)
	u := leftVectors(a, d)
	utu := mat.Mul(u.T(), u)
	if !mat.Equalish(utu, mat.Identity(d.Rank()), 1e-7) {
		t.Fatalf("UᵀU not identity: %v", utu.Data())
	}
}

func TestVOrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 12, 5)
	d := Compute(a, 0)
	vtv := mat.Mul(d.V.T(), d.V)
	if !mat.Equalish(vtv, mat.Identity(d.Rank()), 1e-8) {
		t.Fatalf("VᵀV not identity: %v", vtv.Data())
	}
}

func TestKnownSingularValues(t *testing.T) {
	// diag(3, 2) embedded in a 3×2 matrix has singular values 3 and 2.
	a := mat.FromRows([][]float64{{3, 0}, {0, 2}, {0, 0}})
	d := Compute(a, 0)
	if d.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", d.Rank())
	}
	if math.Abs(d.S[0]-3) > 1e-10 || math.Abs(d.S[1]-2) > 1e-10 {
		t.Fatalf("S = %v, want [3 2]", d.S)
	}
}

func TestRankDeficientDetected(t *testing.T) {
	// Second column is a multiple of the first: rank 1.
	a := mat.FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	d := Compute(a, 0)
	if d.Rank() != 1 {
		t.Fatalf("rank = %d, want 1", d.Rank())
	}
}

// Property: truncation error is monotonically non-increasing in k, and the
// rank-k error equals sqrt(Σ_{i>k} s_i²) (Eckart–Young).
func TestTruncationErrorMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 9, 6)
		d := Compute(a, 0)
		prev := math.Inf(1)
		for k := 0; k <= d.Rank(); k++ {
			diff := d.Truncate(a, k)
			for i, v := range a.Data() {
				diff.Data()[i] -= v
			}
			err := diff.FrobeniusNorm()
			if err > prev+1e-9 {
				return false
			}
			var tail float64
			for i := k; i < d.Rank(); i++ {
				tail += d.S[i] * d.S[i]
			}
			if math.Abs(err-math.Sqrt(tail)) > 1e-6 {
				return false
			}
			prev = err
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTruncateBeyondRankIsFullReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 6, 4)
	d := Compute(a, 0)
	if !mat.Equalish(d.Truncate(a, 100), a, 1e-7) {
		t.Fatal("Truncate beyond rank should reconstruct fully")
	}
}

func TestTruncateNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	id := mat.Identity(2)
	Compute(id, 0).Truncate(id, -1)
}

func TestApplyRankMatchesTruncateOnTrainingData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 8, 5)
	d := Compute(a, 0)
	for k := 1; k <= d.Rank(); k++ {
		if !mat.Equalish(d.ApplyRank(a, k), d.Truncate(a, k), 1e-7) {
			t.Fatalf("ApplyRank(k=%d) disagrees with Truncate", k)
		}
	}
}

func TestApplyRankOnNewData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	train := randomMatrix(rng, 20, 4)
	test := randomMatrix(rng, 5, 4)
	d := Compute(train, 0)
	out := d.ApplyRank(test, 2)
	if r, c := out.Dims(); r != 5 || c != 4 {
		t.Fatalf("ApplyRank dims = %d×%d, want 5×4", r, c)
	}
	// Projection is idempotent: applying twice changes nothing.
	if !mat.Equalish(d.ApplyRank(out, 2), out, 1e-8) {
		t.Fatal("rank-k projection must be idempotent")
	}
}

func TestBasisOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := Compute(randomMatrix(rng, 10, 6), 0)
	b := d.Basis(3)
	if !mat.Equalish(mat.Mul(b.T(), b), mat.Identity(3), 1e-8) {
		t.Fatal("basis columns must be orthonormal")
	}
}

func TestEmptyMatrix(t *testing.T) {
	d := Compute(mat.NewDense(0, 0), 0)
	if d.Rank() != 0 {
		t.Fatalf("rank of empty = %d, want 0", d.Rank())
	}
}
