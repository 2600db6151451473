package knn

import (
	"testing"

	"repro/internal/mat"
)

// FuzzKDTreeMatchesBruteForce differentially fuzzes the tree against the
// exhaustive scan over m ∈ [0, 600] rows, so trees reach several bucket
// levels, n ∈ [0, 6] columns (zero columns included) and
// k ∈ [0, min(m+2, 255)]. Cell values come from the fuzz bytes on a
// five-level grid, so distance ties are the common case and the index
// tie-break is exercised on every input. Neighbors, Query (on
// every row and off the grid) and AllNeighborsWorkers with 1 and 3
// workers must all return exactly bruteQuery's lists. Run under
// `make fuzz`.
func FuzzKDTreeMatchesBruteForce(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint8(0), []byte{})
	f.Add(uint16(5), uint8(0), uint8(3), []byte{})
	f.Add(uint16(1), uint8(2), uint8(2), []byte{7})
	f.Add(uint16(3), uint8(1), uint8(2), []byte{2, 3, 1})
	f.Add(uint16(17), uint8(2), uint8(6), []byte{1, 2, 3, 4, 0})
	f.Add(uint16(40), uint8(1), uint8(10), []byte{0, 0, 1})
	f.Add(uint16(64), uint8(6), uint8(66), []byte{9, 4, 1, 7, 3, 3, 8, 2, 6, 5, 0})
	f.Add(uint16(600), uint8(2), uint8(16), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	f.Fuzz(func(t *testing.T, mRaw uint16, nRaw, kRaw uint8, vals []byte) {
		m, n := int(mRaw)%601, int(nRaw)%7
		k := int(kRaw) % (m + 3)
		data := mat.NewDense(m, n)
		if len(vals) > 0 {
			for p := range data.Data() {
				data.Data()[p] = float64(vals[p%len(vals)]%5) - 2
			}
		}
		tree := NewKDTree(data)
		check := func(what string, got, want []int) {
			t.Helper()
			if !sameInts(got, want) {
				t.Fatalf("%s = %v, want %v", what, got, want)
			}
		}
		off := make([]float64, n)
		for i := 0; i < m; i++ {
			row := data.Row(i)
			check("Neighbors", tree.Neighbors(i, k), bruteQuery(data, row, i, k))
			check("Query on a row", tree.Query(row, k), bruteQuery(data, row, -1, k))
			for j, v := range row {
				off[j] = v + 0.5
			}
			check("Query off the grid", tree.Query(off, k), bruteQuery(data, off, -1, k))
		}
		if m == 0 {
			check("Query on an empty tree", tree.Query(off, k), nil)
		}
		for _, workers := range []int{1, 3} {
			all := tree.AllNeighborsWorkers(k, workers)
			if len(all) != m {
				t.Fatalf("workers=%d: %d lists for %d rows", workers, len(all), m)
			}
			for i, got := range all {
				check("AllNeighborsWorkers", got, bruteQuery(data, data.Row(i), i, k))
			}
		}
	})
}
