package knn

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestBuilderMatchesWholeMatrixTree: a tree assembled row by row through
// the Builder must answer every query exactly like one built from the
// full matrix in one shot — the streaming path may not change neighbour
// semantics.
func TestBuilderMatchesWholeMatrixTree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, n := 230, 4
	data := mat.NewDense(m, n)
	for i := range data.Data() {
		data.Data()[i] = rng.NormFloat64()
	}

	b := NewBuilder(m, n)
	for i := 0; i < m; i++ {
		b.Append(data.Row(i))
		if got := b.next; got != i+1 {
			t.Fatalf("%d rows appended, builder counts %d", i+1, got)
		}
	}
	streamed := b.Build()
	whole := NewKDTree(data)

	for i := 0; i < m; i += 7 {
		got := streamed.Neighbors(i, 9)
		want := whole.Neighbors(i, 9)
		if len(got) != len(want) {
			t.Fatalf("row %d: %d neighbours, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d neighbour %d: got %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestBuilderCopiesRows: Append must copy, so a caller reusing one scratch
// slice per row (as the ingest sweep does) cannot corrupt the index.
func TestBuilderCopiesRows(t *testing.T) {
	b := NewBuilder(3, 2)
	scratch := []float64{0, 0}
	for i := 0; i < 3; i++ {
		scratch[0] = float64(i)
		scratch[1] = float64(-i)
		b.Append(scratch)
	}
	tree := b.Build()
	want := NewKDTree(mat.FromRows([][]float64{{0, 0}, {1, -1}, {2, -2}}))
	for i := 0; i < 3; i++ {
		g, w := tree.Neighbors(i, 2), want.Neighbors(i, 2)
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("row %d: got %v, want %v", i, g, w)
			}
		}
	}
}

func TestBuilderPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero rows", func() { NewBuilder(0, 2) })
	mustPanic("zero cols", func() { NewBuilder(2, 0) })
	mustPanic("wrong width", func() {
		b := NewBuilder(2, 3)
		b.Append([]float64{1, 2})
	})
	mustPanic("overflow", func() {
		b := NewBuilder(1, 1)
		b.Append([]float64{1})
		b.Append([]float64{2})
	})
	mustPanic("early build", func() {
		b := NewBuilder(2, 1)
		b.Append([]float64{1})
		b.Build()
	})
}
