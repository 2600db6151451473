// Package mat provides the dense linear-algebra kernel used throughout the
// repository: row-major matrices, the handful of BLAS-like operations the
// learners need, a Cholesky solver for ridge regression, and a symmetric
// Jacobi eigensolver that powers the SVD baseline.
//
// The package is deliberately small and allocation-conscious rather than a
// general linear-algebra library: every routine exists because some part of
// the iFair reproduction calls it.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (length rows*cols, row-major) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// FromRows builds a matrix from a slice of equal-length rows, copying them.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d: len %d, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice ALIASING the matrix storage: mutating
// the returned slice mutates the matrix, and the slice stays valid (and
// live) for as long as the matrix does. Callers that hand the slice to
// pooled or retained buffers must copy it first. Contrast Col, which
// returns a copy.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a COPY of column j: column storage is strided, so unlike
// Row the result cannot alias the matrix. Mutating it never affects the
// matrix, and the caller owns the returned slice outright. This
// Row-aliases/Col-copies asymmetry is deliberate (a column view would
// need a stride type the package doesn't carry) — every caller that
// switches between the two accessors must account for it.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Data returns the backing row-major slice, ALIASING the matrix:
// mutations are visible in both directions and the slice must not be
// recycled while the matrix is in use. NewDenseData is the inverse
// (wraps without copying); FromRows and Clone are the copying builders.
func (m *Dense) Data() []float64 { return m.data }

// Reset re-points m at data (length rows*cols, row-major, ALIASED like
// NewDenseData) without allocating, so long-lived pooled matrix headers
// can be re-shaped around recycled backing slices. Any previous backing
// is simply dropped.
func (m *Dense) Reset(rows, cols int, data []float64) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), rows, cols))
	}
	m.rows, m.cols, m.data = rows, cols, data
}

// Clone returns a deep copy sharing no storage with the receiver.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product a*b as a new matrix. MulInto is the
// non-allocating variant when a destination is available.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	MulInto(out, a, b)
	return out
}

// MulVec returns the matrix-vector product m·x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVec length %d, want %d", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value, or 0 for empty matrices.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equalish reports whether a and b have identical dims and all elements
// within tol of each other.
func Equalish(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
