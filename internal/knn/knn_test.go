package knn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestNeighborsLine(t *testing.T) {
	// Points on a line at 0, 1, 2, 10.
	data := mat.FromRows([][]float64{{0}, {1}, {2}, {10}})
	tree := NewKDTree(data)
	got := tree.Neighbors(0, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Neighbors(0,2) = %v, want [1 2]", got)
	}
	got = tree.Neighbors(3, 1)
	if got[0] != 2 {
		t.Fatalf("Neighbors(3,1) = %v, want [2]", got)
	}
}

func TestNeighborsExcludesSelf(t *testing.T) {
	data := mat.FromRows([][]float64{{0}, {0}, {0}})
	tree := NewKDTree(data)
	for i := 0; i < 3; i++ {
		for _, j := range tree.Neighbors(i, 2) {
			if j == i {
				t.Fatalf("Neighbors(%d) contains self", i)
			}
		}
	}
}

func TestNeighborsTieBrokenByIndex(t *testing.T) {
	data := mat.FromRows([][]float64{{0}, {1}, {-1}})
	got := NewKDTree(data).Neighbors(0, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("tie-break order = %v, want [1 2]", got)
	}
}

// Property: distances along the returned neighbour list are non-decreasing,
// and no excluded point is closer than the furthest returned neighbour.
func TestNeighborsAreActuallyNearest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 12
		data := mat.NewDense(m, 3)
		for i := range data.Data() {
			data.Data()[i] = rng.NormFloat64()
		}
		tree := NewKDTree(data)
		const k = 4
		for i := 0; i < m; i++ {
			nb := tree.Neighbors(i, k)
			if len(nb) != k {
				return false
			}
			prev := -1.0
			inSet := make(map[int]bool, k)
			var worst float64
			for _, j := range nb {
				d := mat.SqDist(data.Row(i), data.Row(j))
				if d < prev {
					return false
				}
				prev = d
				worst = d
				inSet[j] = true
			}
			for j := 0; j < m; j++ {
				if j == i || inSet[j] {
					continue
				}
				if mat.SqDist(data.Row(i), data.Row(j)) < worst-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAllNeighbors(t *testing.T) {
	data := mat.FromRows([][]float64{{0}, {1}, {2}})
	all := NewKDTree(data).AllNeighbors(1)
	if len(all) != 3 {
		t.Fatalf("len = %d, want 3", len(all))
	}
	if all[0][0] != 1 || all[2][0] != 1 {
		t.Fatalf("AllNeighbors = %v", all)
	}
}
