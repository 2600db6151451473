package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEigenSymDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 5}})
	vals, _ := EigenSym(a)
	if math.Abs(vals[0]-5) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Fatalf("vals = %v, want [5 3]", vals)
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs := EigenSym(a)
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("vals = %v, want [3 1]", vals)
	}
	// Eigenvector for λ=3 is (1,1)/√2 up to sign.
	v0 := vecs.Col(0)
	if math.Abs(math.Abs(v0[0])-math.Sqrt2/2) > 1e-8 || math.Abs(v0[0]-v0[1]) > 1e-8 {
		t.Fatalf("vec0 = %v, want ±(0.707, 0.707)", v0)
	}
}

// Property: A·v = λ·v for every returned eigenpair.
func TestEigenSymEigenEquation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSymmetric(rng, 6)
		vals, vecs := EigenSym(a)
		for k := 0; k < 6; k++ {
			v := vecs.Col(k)
			av := a.MulVec(v)
			for i := range v {
				if math.Abs(av[i]-vals[k]*v[i]) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: eigenvectors are orthonormal (VᵀV = I).
func TestEigenSymOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSymmetric(rng, 5)
		_, vecs := EigenSym(a)
		return Equalish(Mul(vecs.T(), vecs), Identity(5), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: reconstruction A = V·diag(λ)·Vᵀ.
func TestEigenSymReconstructs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSymmetric(rng, 5)
		vals, vecs := EigenSym(a)
		d := NewDense(5, 5)
		for i, v := range vals {
			d.Set(i, i, v)
		}
		return Equalish(Mul(Mul(vecs, d), vecs.T()), a, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: eigenvalues are sorted in descending order.
func TestEigenSymSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals, _ := EigenSym(randomSymmetric(rng, 7))
		for i := 1; i < len(vals); i++ {
			if vals[i] > vals[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: trace is preserved (sum of eigenvalues = trace of A).
func TestEigenSymTracePreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSymmetric(rng, 6)
		vals, _ := EigenSym(a)
		var sum, tr float64
		for i, v := range vals {
			sum += v
			tr += a.At(i, i)
		}
		return math.Abs(sum-tr) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func randomSymmetric(rng *rand.Rand, n int) *Dense {
	b := randomMatrix(rng, n, n)
	s := sum(b, b.T())
	for i := range s.data {
		s.data[i] *= 0.5
	}
	return s
}
