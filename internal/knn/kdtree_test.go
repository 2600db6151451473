package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// TestKDTreeMatchesBruteForce is the correctness anchor: on random data
// the tree must return exactly the neighbour lists of the exhaustive scan,
// including index tie-breaks.
func TestKDTreeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(60)
		n := 1 + rng.Intn(5)
		data := mat.NewDense(m, n)
		for i := range data.Data() {
			// Coarse values force distance ties.
			data.Data()[i] = float64(rng.Intn(4))
		}
		tree := NewKDTree(data)
		k := 1 + rng.Intn(8)
		for i := 0; i < m; i++ {
			got := tree.Neighbors(i, k)
			want := bruteQuery(data, data.Row(i), i, k)
			if len(got) != len(want) {
				return false
			}
			for j := range want {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKDTreeContinuousData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n := 200, 6
	data := mat.NewDense(m, n)
	for i := range data.Data() {
		data.Data()[i] = rng.NormFloat64()
	}
	tree := NewKDTree(data)
	for i := 0; i < m; i += 13 {
		got := tree.Neighbors(i, 10)
		want := bruteQuery(data, data.Row(i), i, 10)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d neighbour %d: got %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}

func TestKDTreeAllNeighbors(t *testing.T) {
	data := mat.FromRows([][]float64{{0}, {1}, {2}, {10}})
	all := NewKDTree(data).AllNeighbors(2)
	if len(all) != 4 {
		t.Fatalf("len = %d", len(all))
	}
	if all[0][0] != 1 || all[0][1] != 2 {
		t.Fatalf("AllNeighbors[0] = %v, want [1 2]", all[0])
	}
}

// TestKDTreeZeroColumns: an m×0 matrix has every distance 0, so like the
// exhaustive scan the tree must return the lowest indices other than the
// row itself. This is the subspace NeighborFairness indexes when every
// column is protected.
func TestKDTreeZeroColumns(t *testing.T) {
	data := mat.NewDense(5, 0)
	tree := NewKDTree(data)
	for i := 0; i < 5; i++ {
		for _, k := range []int{0, 1, 3, 4, 7} {
			if got, want := tree.Neighbors(i, k), bruteQuery(data, data.Row(i), i, k); !sameInts(got, want) {
				t.Fatalf("Neighbors(%d, %d) = %v, want %v", i, k, got, want)
			}
		}
	}
	for _, k := range []int{0, 2, 5, 7} {
		if got, want := tree.Query(nil, k), bruteQuery(data, nil, -1, k); !sameInts(got, want) {
			t.Fatalf("Query(%d) = %v, want %v", k, got, want)
		}
	}
	for _, workers := range []int{1, 3} {
		all := tree.AllNeighborsWorkers(2, workers)
		for i, got := range all {
			if want := bruteQuery(data, data.Row(i), i, 2); !sameInts(got, want) {
				t.Fatalf("workers=%d: AllNeighborsWorkers(2)[%d] = %v, want %v", workers, i, got, want)
			}
		}
	}
}

func TestKDTreeKZero(t *testing.T) {
	data := mat.FromRows([][]float64{{0}, {1}})
	if got := NewKDTree(data).Neighbors(0, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestKDTreeKLargerThanData(t *testing.T) {
	data := mat.FromRows([][]float64{{0}, {1}, {5}})
	got := NewKDTree(data).Neighbors(0, 10)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestKDTreeSingleRow(t *testing.T) {
	data := mat.FromRows([][]float64{{3, 4}})
	if got := NewKDTree(data).Neighbors(0, 5); len(got) != 0 {
		t.Fatalf("single-row tree returned %v", got)
	}
}

func TestKDTreeEmpty(t *testing.T) {
	tree := NewKDTree(mat.NewDense(0, 0))
	if len(tree.perm) != 0 || len(tree.split) != 0 {
		t.Fatal("empty tree should have no rows and no nodes")
	}
}

func TestKDTreeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKDTree(mat.NewDense(2, 1)).Neighbors(5, 1)
}

func TestKDTreeNegativeKPanics(t *testing.T) {
	tree, empty := NewKDTree(mat.NewDense(2, 1)), NewKDTree(mat.NewDense(0, 1))
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Neighbors", func() { tree.Neighbors(0, -2) }},
		{"Query", func() { tree.Query([]float64{0}, -1) }},
		{"AllNeighborsWorkers", func() { tree.AllNeighborsWorkers(-1, 1) }},
		{"AllNeighborsWorkers on an empty tree", func() { empty.AllNeighborsWorkers(-1, 2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a negative k did not panic", c.name)
				}
			}()
			c.call()
		}()
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	// All identical points: neighbours are decided purely by index.
	data := mat.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}})
	got := NewKDTree(data).Neighbors(2, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("got %v, want [0 1]", got)
	}
}

// TestKDTreeDegenerateAxes sweeps duplicate-heavy data with constant
// (zero-variance) columns — every split on such an axis degenerates to
// the pure index order — and checks exact agreement with brute force.
func TestKDTreeDegenerateAxes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(80)
		n := 1 + rng.Intn(6)
		data := mat.NewDense(m, n)
		// Choose a random subset of columns to hold one constant value;
		// the rest draw from a tiny alphabet so duplicates dominate.
		constCol := make([]bool, n)
		for j := range constCol {
			constCol[j] = rng.Intn(2) == 0
		}
		for i := 0; i < m; i++ {
			row := data.Row(i)
			for j := range row {
				if constCol[j] {
					row[j] = 7
				} else {
					row[j] = float64(rng.Intn(3))
				}
			}
		}
		tree := NewKDTree(data)
		k := 1 + rng.Intn(12)
		for i := 0; i < m; i++ {
			got, want := tree.Neighbors(i, k), bruteQuery(data, data.Row(i), i, k)
			if len(got) != len(want) {
				return false
			}
			for j := range want {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestKDTreeAllColumnsConstant pins the fully degenerate case: every
// axis ties on every record, so neighbours are decided by index alone.
func TestKDTreeAllColumnsConstant(t *testing.T) {
	m := 37
	data := mat.NewDense(m, 3)
	for i := range data.Data() {
		data.Data()[i] = 1.5
	}
	tree := NewKDTree(data)
	for i := 0; i < m; i++ {
		got, want := tree.Neighbors(i, 5), bruteQuery(data, data.Row(i), i, 5)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d: got %v, want %v", i, got, want)
			}
		}
	}
}

// TestKDTreeExactAtScale checks the bucketed tree against the exhaustive
// scan across bucket boundaries (m around leafSize) and at several bucket
// levels (m = 1000 and 20000), on integer-grid data with a few rows per
// cell where every seventh row also duplicates an earlier one, so distance
// ties and zero-distance neighbours on both sides of a split are the
// common case. Neighbors, Query (on a row and off the grid) and
// AllNeighborsWorkers with 1 and 3 workers must return exactly
// bruteQuery's lists. To keep the run short, m = 20000 compares a
// strided subset of rows and runs AllNeighborsWorkers at k = 16 only, and
// k ≥ m−1 (an O(m·k) query under sorted insertion) runs only up to
// m = 1000, on a strided subset there.
func TestKDTreeExactAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, leafSize - 1, leafSize, leafSize + 1, 1000, 20000} {
		for _, n := range []int{0, 1, 2, 3, 8} {
			span := max(3, int(math.Ceil(math.Pow(float64(m)/4, 1/float64(max(n, 1))))))
			data := mat.NewDense(m, n)
			for i := 0; i < m; i++ {
				row := data.Row(i)
				if i%7 == 6 {
					copy(row, data.Row(rng.Intn(i)))
					continue
				}
				for j := range row {
					row[j] = float64(rng.Intn(span))
				}
			}
			tree := NewKDTree(data)
			ks, stride := []int{1, 10, 16, m - 1, m + 2}, 1
			if m > 1000 {
				ks, stride = ks[:3], m/20
			}
			all := map[int][][]int{}
			for _, k := range ks {
				if k < 0 || (m > 1000 && k != 16) || m*min(k, m) > 200_000 {
					continue
				}
				serial := tree.AllNeighborsWorkers(k, 1)
				if got := tree.AllNeighborsWorkers(k, 3); !sameLists(got, serial) {
					t.Fatalf("m=%d n=%d k=%d: AllNeighborsWorkers differs between 1 and 3 workers", m, n, k)
				}
				all[k] = serial
			}
			off := make([]float64, n)
			for i := 0; i < m; i += stride {
				row := data.Row(i)
				for j, v := range row {
					off[j] = v + 0.5
				}
				excl, incl, offq := bruteQuery(data, row, i, m), bruteQuery(data, row, -1, m), bruteQuery(data, off, -1, m)
				for _, k := range ks {
					if k < 0 || (k > 16 && i%50 != 0) {
						continue
					}
					check := func(what string, got, want []int) {
						t.Helper()
						if want = want[:min(k, len(want))]; !sameInts(got, want) {
							t.Fatalf("m=%d n=%d k=%d row %d: %s = %v, want %v", m, n, k, i, what, got, want)
						}
					}
					check("Neighbors", tree.Neighbors(i, k), excl)
					check("Query on the row", tree.Query(row, k), incl)
					check("Query off the grid", tree.Query(off, k), offq)
					if lists, ok := all[k]; ok {
						check("AllNeighborsWorkers", lists[i], excl)
					}
				}
			}
		}
	}
}

// sameLists reports whether two sets of neighbour lists are equal.
func sameLists(got, want [][]int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if !sameInts(got[i], want[i]) {
			return false
		}
	}
	return true
}

// TestAllNeighborsWorkersBitIdentical checks the parallel fan-out
// returns exactly the serial lists for every worker count.
func TestAllNeighborsWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 300, 4
	data := mat.NewDense(m, n)
	for i := range data.Data() {
		data.Data()[i] = float64(rng.Intn(5))
	}
	tree := NewKDTree(data)
	want := tree.AllNeighbors(7)
	for _, workers := range []int{1, 2, 4, 8, 16} {
		got := tree.AllNeighborsWorkers(7, workers)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d row %d: got %v, want %v", workers, i, got[i], want[i])
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d row %d: got %v, want %v", workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestKDTreeBuildAllocs is the allocation-regression gate for the
// in-place build: construction must allocate a constant handful of
// slices (the row permutation and its inverse, the split values and the
// tree-order coordinates), never per-node copies. Race-gated like internal/kernel's pooled-scratch assertions.
func TestKDTreeBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	m, n := 20000, 6
	data := mat.NewDense(m, n)
	for i := range data.Data() {
		data.Data()[i] = rng.NormFloat64()
	}
	allocs := testing.AllocsPerRun(3, func() {
		NewKDTree(data)
	})
	// 1 tree struct + 4 slices, with a little headroom; the copying
	// build needed ~2 allocations per node (40k+).
	if allocs > 8 {
		t.Fatalf("build of %d rows allocated %.0f objects, want ≤ 8", m, allocs)
	}
}

// BenchmarkKDTreeBuild measures tree construction at 100k rows — the
// kd-tree cost that used to dominate million-row neighbour sampling.
func BenchmarkKDTreeBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, n := 100000, 8
	data := mat.NewDense(m, n)
	for i := range data.Data() {
		data.Data()[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewKDTree(data)
	}
}

func BenchmarkNeighbors(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, n := 2000, 8
	data := mat.NewDense(m, n)
	for i := range data.Data() {
		data.Data()[i] = rng.NormFloat64()
	}
	b.Run("BruteForce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bruteQuery(data, data.Row(i%m), i%m, 10)
		}
	})
	b.Run("KDTree", func(b *testing.B) {
		tree := NewKDTree(data)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Neighbors(i%m, 10)
		}
	})
}

// Query (by-vector, no exclusion) must return exactly what a brute-force
// scan ordered by (distance, index) returns, for queries both on and off
// the indexed points.
func TestKDTreeQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m, n := 1+rng.Intn(200), 1+rng.Intn(6)
		data := mat.NewDense(m, n)
		for i := range data.Data() {
			data.Data()[i] = rng.NormFloat64()
		}
		tree := NewKDTree(data)
		for probe := 0; probe < 10; probe++ {
			q := make([]float64, n)
			if probe%2 == 0 {
				copy(q, data.Row(rng.Intn(m))) // exactly on a point
			} else {
				for j := range q {
					q[j] = rng.NormFloat64() * 2
				}
			}
			k := 1 + rng.Intn(m+2) // sometimes > m
			got := tree.Query(q, k)
			want := bruteQuery(data, q, -1, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d: len %d want %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Query=%v brute=%v", trial, got, want)
				}
			}
		}
	}
}

// sameInts reports whether two neighbour lists are equal.
func sameInts(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for j := range want {
		if got[j] != want[j] {
			return false
		}
	}
	return true
}

// bruteQuery is the reference implementation: every row except exclude
// (−1 excludes none) sorted ascending by (squared distance, index),
// truncated to k. Neighbors(i, k) must equal bruteQuery(data, row i, i,
// k) and Query(q, k) must equal bruteQuery(data, q, −1, k).
func bruteQuery(data *mat.Dense, q []float64, exclude, k int) []int {
	m := data.Rows()
	idx := make([]int, 0, m)
	d := make([]float64, m)
	for i := 0; i < m; i++ {
		if i != exclude {
			idx = append(idx, i)
			d[i] = mat.SqDist(q, data.Row(i))
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if d[ia] != d[ib] {
			return d[ia] < d[ib]
		}
		return ia < ib
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

func TestKDTreeQueryEdgeCases(t *testing.T) {
	data := mat.FromRows([][]float64{{0}, {1}, {2}})
	tree := NewKDTree(data)
	if got := tree.Query([]float64{0.6}, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := tree.Query([]float64{0.6}, 2); got[0] != 1 || got[1] != 0 {
		t.Fatalf("Query(0.6, 2) = %v, want [1 0]", got)
	}
	// Unlike Neighbors, a query equal to a row still returns that row.
	if got := tree.Query([]float64{1}, 1); got[0] != 1 {
		t.Fatalf("Query on a point = %v, want [1]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dims mismatch did not panic")
		}
	}()
	tree.Query([]float64{0, 0}, 1)
}
