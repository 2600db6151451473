package knn

import (
	"fmt"

	"repro/internal/mat"
)

// Builder collects a KDTree's input matrix row by row from rows that
// arrive in chunks. The matrix is preallocated once from the known row
// count, each appended row is copied into place, and Build hands the
// matrix to NewKDTree in a single call at the end; NewKDTree copies the
// coordinates into tree order, so the tree does not retain the matrix.
// Only the perfbench module uses it, to time the tree build as its own
// layer; the library fits build their trees with NewKDTree directly.
type Builder struct {
	data *mat.Dense
	next int
}

// NewBuilder preallocates for exactly rows×cols values.
func NewBuilder(rows, cols int) *Builder {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("knn: invalid builder shape %d×%d", rows, cols))
	}
	return &Builder{data: mat.NewDense(rows, cols)}
}

// Append copies one row into the next slot.
func (b *Builder) Append(row []float64) {
	m, n := b.data.Dims()
	if b.next >= m {
		panic(fmt.Sprintf("knn: builder overflow: %d rows declared", m))
	}
	if len(row) != n {
		panic(fmt.Sprintf("knn: builder row has %d values, want %d", len(row), n))
	}
	copy(b.data.Row(b.next), row)
	b.next++
}

// Rows returns how many rows have been appended so far.
func (b *Builder) Rows() int { return b.next }

// Build constructs the tree. Every declared row must have been appended
// — a partially filled matrix would index phantom zero rows.
func (b *Builder) Build() *KDTree {
	if m, _ := b.data.Dims(); b.next != m {
		panic(fmt.Sprintf("knn: builder holds %d of %d declared rows", b.next, m))
	}
	return NewKDTree(b.data)
}
