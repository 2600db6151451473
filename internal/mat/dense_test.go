package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("untouched element = %v, want 0", got)
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims = %d×%d, want 3×2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("dims = %d×%d, want 0×0", m.Rows(), m.Cols())
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIndexOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	m.At(2, 0)
}

func TestRowAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestColCopies(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col(1) = %v, want [2 4]", c)
	}
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col must copy, not alias")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must be independent of the original")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T dims = %d×%d, want 3×2", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMatrix(rand.New(rand.NewSource(seed)), 5, 7)
		return Equalish(m, m.T().T(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 4, 4)
	if !Equalish(Mul(m, Identity(4)), m, 1e-12) {
		t.Fatal("M·I != M")
	}
	if !Equalish(Mul(Identity(4), m), m, 1e-12) {
		t.Fatal("I·M != M")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := Mul(a, b); !Equalish(got, want, 0) {
		t.Fatalf("Mul = %v, want %v", got.Data(), want.Data())
	}
}

func TestMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

// Property: matrix multiplication distributes over addition.
func TestMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 2)
		c := randomMatrix(rng, 4, 2)
		left := Mul(a, sum(b, c))
		right := sum(Mul(a, b), Mul(a, c))
		return Equalish(left, right, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMulTransposeIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3, 5)
		b := randomMatrix(rng, 5, 4)
		return Equalish(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := m.MulVec([]float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, 4}})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v, want 5", got)
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{-7, 2}, {3, 4}})
	if got := m.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
	if got := NewDense(0, 0).MaxAbs(); got != 0 {
		t.Fatalf("empty MaxAbs = %v, want 0", got)
	}
}

func TestEqualish(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.0000001, 2}})
	if !Equalish(a, b, 1e-5) {
		t.Fatal("expected near-equal matrices")
	}
	if Equalish(a, b, 1e-9) {
		t.Fatal("expected inequality at tight tolerance")
	}
	if Equalish(a, NewDense(2, 1), 1) {
		t.Fatal("different dims must not be equal")
	}
}

func TestNewDenseDataWrapsWithoutCopy(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := NewDenseData(2, 3, data)
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	data[0] = 99
	if m.At(0, 0) != 99 {
		t.Fatal("NewDenseData must alias the provided slice")
	}
}

func TestNewDenseDataLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDenseData(2, 3, []float64{1, 2})
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(-1, 2)
}

func TestMulVecMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 3).MulVec([]float64{1})
}

// sum returns a+b as a new matrix.
func sum(a, b *Dense) *Dense {
	out := NewDense(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

func randomMatrix(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}
