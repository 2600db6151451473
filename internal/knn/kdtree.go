// Package knn provides exact k-nearest-neighbour search over row vectors.
//
// The paper's individual-fairness metric yNN (Sec. V-C) is defined through
// the k = 10 nearest neighbours of each record computed on the original,
// non-protected attribute values, and NeighborFairness training pairs each
// record with neighbours from the same subspace. Both take their neighbour
// sets from the one KDTree here, so the pairs training constrains and the
// ones yNN reports come from a single code path.
package knn

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/par"
)

// leafSize bounds the rows per leaf bucket. Leaves are scanned linearly,
// so a bucket of a few rows trades a handful of extra distance
// computations for far fewer node visits and recursion steps.
const leafSize = 12

// KDTree is a bucketed k-d tree over matrix rows for exact
// nearest-neighbour queries. For the low-to-moderate dimensionalities of
// the encoded datasets it answers kNN queries in roughly logarithmic time
// per probe, and it returns exactly what an exhaustive scan ordered by
// (squared Euclidean distance, index) returns: the index tie-break is part
// of the contract. A matrix with no columns is valid: every distance is 0,
// so the neighbours are the lowest indices.
//
// The tree is implicit. Splitting the tree-position range [lo, hi) at
// mid = (lo+hi)/2 to a fixed depth leaves every leaf with at most
// leafSize rows, so node ni's children are 2ni+1 and 2ni+2 and the only
// node data is the split value. The coordinates are stored in tree order,
// so a leaf is one contiguous run of rows.
type KDTree struct {
	dims  int
	depth int       // leaves sit at this depth; 0 is a single leaf
	split []float64 // node ni splits on axis depth(ni) % dims at split[ni]
	pts   []float64 // coordinates, row-major in tree order
	perm  []int     // tree position → row index
	pos   []int     // row index → tree position
}

// NewKDTree builds a k-d tree over the rows of data. The coordinates are
// copied into tree order, so data is not retained and may be modified
// afterwards. Axes are chosen round-robin by depth and each range splits at
// the median of the (value, index) total order, selected in place
// (quickselect, O(M log M) expected time) on the range's slice of one
// shared row permutation and its axis values. The build makes a constant
// handful of allocations, none per node.
func NewKDTree(data *mat.Dense) *KDTree {
	m, n := data.Dims()
	t := &KDTree{dims: n}
	t.perm = make([]int, m)
	for i := range t.perm {
		t.perm[i] = i
	}
	t.pts = make([]float64, m*n)
	// With no columns there is nothing to split on, and the identity
	// order is the (distance, index) order.
	if n > 0 {
		for size := m; size > leafSize; size = (size + 1) / 2 {
			t.depth++
		}
		t.split = make([]float64, 1<<t.depth-1)
		// pts is not filled until the order is final, so its first m
		// values serve as the build's key scratch.
		t.build(data.Data(), t.pts[:m], 0, 0, 0, 0, m)
	}
	t.pos = make([]int, m)
	for p, row := range t.perm {
		copy(t.pts[p*n:(p+1)*n], data.Row(row))
		t.pos[row] = p
	}
	return t
}

// build orders perm[lo:hi] for node ni at depth d, splitting on axis: the
// lower half of the (value, index) order goes to [lo, mid), the upper
// half to [mid, hi), and the split is the value of the row at mid. x is
// the row-major input; keys[lo:hi] is scratch that receives the axis value
// of every row in the range, so median selection reads its keys
// sequentially instead of chasing rows through the matrix.
func (t *KDTree) build(x, keys []float64, ni, d, axis, lo, hi int) {
	if d == t.depth {
		return
	}
	rows, k := t.perm[lo:hi], keys[lo:hi]
	for i, r := range rows {
		k[i] = x[r*t.dims+axis]
	}
	mid := (lo + hi) >> 1
	selectMedian(k, rows, mid-lo)
	t.split[ni] = k[mid-lo]
	if axis++; axis == t.dims {
		axis = 0
	}
	t.build(x, keys, 2*ni+1, d+1, axis, lo, mid)
	t.build(x, keys, 2*ni+2, d+1, axis, mid, hi)
}

// keyLess orders (axis value, row index) pairs — a total order, since row
// indices are distinct, so quickselect partitions see no equal keys and
// the k-th element is exactly the one a full sort would place at
// position k.
func keyLess(ka float64, ra int, kb float64, rb int) bool {
	if ka != kb {
		return ka < kb
	}
	return ra < rb
}

// selectMedian partially orders keys and rows together in place so that
// position k holds the k-th element of the (key, row) total order,
// everything before it orders below and everything after orders above —
// quickselect with a deterministic median-of-three pivot.
func selectMedian(keys []float64, rows []int, k int) {
	lo, hi := 0, len(rows)-1
	for lo < hi {
		p := hoarePartition(keys, rows, lo, hi)
		if k <= p {
			hi = p
		} else {
			lo = p + 1
		}
	}
}

// hoarePartition partitions positions lo..hi around a median-of-three
// pivot and returns j such that every element of lo..j orders at or below
// the pivot and every element of j+1..hi at or above it, with lo ≤ j < hi.
func hoarePartition(keys []float64, rows []int, lo, hi int) int {
	less := func(a, b int) bool { return keyLess(keys[a], rows[a], keys[b], rows[b]) }
	swap := func(a, b int) {
		keys[a], keys[b] = keys[b], keys[a]
		rows[a], rows[b] = rows[b], rows[a]
	}
	mid := int(uint(lo+hi) >> 1)
	if less(mid, lo) {
		swap(mid, lo)
	}
	if less(hi, lo) {
		swap(hi, lo)
	}
	if less(hi, mid) {
		swap(hi, mid)
	}
	pk, pr := keys[mid], rows[mid]
	i, j := lo-1, hi+1
	for {
		for {
			i++
			if !keyLess(keys[i], rows[i], pk, pr) {
				break
			}
		}
		for {
			j--
			if !keyLess(pk, pr, keys[j], rows[j]) {
				break
			}
		}
		if i >= j {
			return j
		}
		swap(i, j)
	}
}

// candidates holds the k best (distance, row) pairs seen so far in
// ascending (distance, row) order, the brute-force tie-break. worst is
// the k-th distance once k candidates are held and +Inf before. Sorted
// insertion costs O(k) per accepted candidate, cheap for the small k
// (≤ 32) every caller uses, and the list is the answer with no final
// sort.
type candidates struct {
	dist  []float64
	idx   []int
	k     int
	worst float64
}

// reset empties the list for a new query, keeping dist's backing array
// and collecting into idx's (capacity ≥ k).
func (c *candidates) reset(idx []int, k int) {
	c.dist = c.dist[:0]
	c.idx = idx[:0]
	c.k = k
	c.worst = math.Inf(1)
}

// insert offers a candidate whose distance is not above worst: it enters
// in order, displacing the current k-th when the list is full, unless it
// ties the k-th on distance with a larger row index.
func (c *candidates) insert(d float64, i int) {
	j := len(c.idx)
	if j == c.k {
		j--
		if d == c.dist[j] && i > c.idx[j] {
			return
		}
	} else {
		c.dist = append(c.dist, d)
		c.idx = append(c.idx, i)
	}
	for j > 0 && (c.dist[j-1] > d || (c.dist[j-1] == d && c.idx[j-1] > i)) {
		c.dist[j], c.idx[j] = c.dist[j-1], c.idx[j-1]
		j--
	}
	c.dist[j], c.idx[j] = d, i
	if len(c.idx) == c.k {
		c.worst = c.dist[c.k-1]
	}
}

// Neighbors returns the k nearest rows to row i, excluding i itself,
// ordered by increasing squared Euclidean distance with ties broken by
// index. If fewer than k other rows exist, all of them are returned.
func (t *KDTree) Neighbors(i, k int) []int {
	m := len(t.perm)
	if i < 0 || i >= m {
		panic(fmt.Sprintf("knn: row %d out of range %d", i, m))
	}
	if k < 0 {
		panic(fmt.Sprintf("knn: negative k %d", k))
	}
	k = min(k, m-1)
	if k == 0 {
		return []int{}
	}
	p := t.pos[i]
	return t.query(t.pts[p*t.dims:(p+1)*t.dims], p, k)
}

// Query returns the k nearest rows to an arbitrary query vector, which
// need not be a row of the indexed matrix (no row is excluded). This is
// the by-vector entry point the live drift monitor uses to estimate yNN
// consistency on served requests: the tree is built once over a held
// reference set and probed with incoming rows. Results order ascending
// by (distance, index), the same tie-break as Neighbors.
func (t *KDTree) Query(q []float64, k int) []int {
	if len(q) != t.dims {
		panic(fmt.Sprintf("knn: query dims %d, tree dims %d", len(q), t.dims))
	}
	if k < 0 {
		panic(fmt.Sprintf("knn: negative k %d", k))
	}
	k = min(k, len(t.perm))
	if k == 0 {
		return []int{}
	}
	return t.query(q, -1, k)
}

// query returns the k ≥ 1 nearest rows to q, skipping tree position
// exclude (−1 skips none).
func (t *KDTree) query(q []float64, exclude, k int) []int {
	c := candidates{dist: make([]float64, 0, k)}
	c.reset(make([]int, 0, k), k)
	t.nearest(q, exclude, &c)
	return c.idx
}

// nearest fills c with the best rows for query, skipping tree position
// exclude (−1 skips none).
func (t *KDTree) nearest(query []float64, exclude int, c *candidates) {
	if t.dims == 0 {
		// No columns: every distance is 0, the tree order is the row
		// order, and so is the (distance, index) order.
		for p := 0; p < len(t.perm) && len(c.idx) < c.k; p++ {
			if p != exclude {
				c.insert(0, p)
			}
		}
		return
	}
	t.search(0, 0, 0, 0, len(t.perm), query, exclude, c)
}

// search visits node ni at depth d, which covers tree positions [lo, hi)
// and splits on axis. Leaves are scanned linearly; an inner node descends
// into the query's side first and into the far side only when the
// splitting plane is no further than the current k-th distance.
func (t *KDTree) search(ni, d, axis, lo, hi int, query []float64, exclude int, c *candidates) {
	if d == t.depth {
		n := t.dims
		query = query[:n]
		for p := lo; p < hi; p++ {
			if p == exclude {
				continue
			}
			// mat.SqDist(query, row), inlined: the same operand and
			// summation order, so ties break exactly as in a scan.
			row := t.pts[p*n : p*n+n]
			var s float64
			for j, q := range query {
				diff := q - row[j]
				s += diff * diff
			}
			if s > c.worst {
				continue
			}
			c.insert(s, t.perm[p])
		}
		return
	}
	mid := (lo + hi) >> 1
	delta := query[axis] - t.split[ni]
	next := axis + 1
	if next == t.dims {
		next = 0
	}
	if delta < 0 {
		t.search(2*ni+1, d+1, next, lo, mid, query, exclude, c)
		// With ties possible, the far side is pruned only when strictly
		// further: ≤, not <.
		if len(c.idx) < c.k || delta*delta <= c.worst {
			t.search(2*ni+2, d+1, next, mid, hi, query, exclude, c)
		}
	} else {
		t.search(2*ni+2, d+1, next, mid, hi, query, exclude, c)
		if len(c.idx) < c.k || delta*delta <= c.worst {
			t.search(2*ni+1, d+1, next, lo, mid, query, exclude, c)
		}
	}
}

// AllNeighbors returns the k-nearest-neighbour lists for every row.
func (t *KDTree) AllNeighbors(k int) [][]int {
	return t.AllNeighborsWorkers(k, 1)
}

// AllNeighborsWorkers is AllNeighbors fanned out over up to workers
// goroutines (≤ 1 runs inline). Each row's list is a pure function of
// the immutable tree, the row index and k, and every row is computed by
// exactly one chunk, so the output is bit-identical for every worker
// count — the internal/par determinism contract.
//
// Chunks walk tree positions rather than row indices, so successive
// queries start from neighbouring points and revisit the same leaves
// while they are still in cache. Every row has exactly min(k, m−1)
// neighbours, so all lists live in one flat backing slice that the
// candidate lists collect into directly: O(1) allocations per chunk
// instead of several per row, which is what makes the million-row
// pair-sampling build practical.
func (t *KDTree) AllNeighborsWorkers(k, workers int) [][]int {
	if k < 0 {
		panic(fmt.Sprintf("knn: negative k %d", k))
	}
	m := len(t.perm)
	out := make([][]int, m)
	if m == 0 {
		return out
	}
	keff := min(k, m-1)
	flat := make([]int, m*keff)
	n := t.dims
	par.Chunks(m).Run(workers, func(_, lo, hi int) {
		c := candidates{dist: make([]float64, 0, keff)}
		for p := lo; p < hi; p++ {
			row := t.perm[p]
			dst := flat[row*keff : (row+1)*keff : (row+1)*keff]
			if keff > 0 {
				c.reset(dst, keff)
				t.nearest(t.pts[p*n:(p+1)*n], p, &c)
			}
			out[row] = dst
		}
	})
	return out
}
