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

	"repro/internal/mat"
	"repro/internal/par"
)

// KDTree is a k-d tree over matrix rows for exact nearest-neighbour
// queries. For the low-to-moderate dimensionalities of the encoded
// datasets it answers kNN queries in roughly logarithmic time per probe,
// and it returns exactly what an exhaustive scan ordered by (squared
// Euclidean distance, index) returns: the index tie-break is part of the
// contract. A matrix with no columns is valid: every distance is 0, so
// the neighbours are the lowest indices.
type KDTree struct {
	data *mat.Dense
	// nodes is a heap-like implicit tree stored as index permutations:
	// node i splits on axis[i] at the row idx[i].
	idx   []int
	axis  []int
	left  []int // child node positions, −1 when absent
	right []int
	root  int
	dims  int
}

// NewKDTree builds a k-d tree over the rows of data (retained, not
// copied). Axes are chosen round-robin and split at the median of the
// (value, index) total order — the same element a full sort would place
// there — so the tree is identical to the historical sort-based build.
// Median selection runs in place on one shared row-index slice (children
// recurse on its disjoint halves), giving O(M log M) expected time and
// O(log M) extra space: a handful of allocations in total instead of two
// slice copies plus a sort at every node.
func NewKDTree(data *mat.Dense) *KDTree {
	m, n := data.Dims()
	t := &KDTree{data: data, dims: n, root: -1}
	if m == 0 || n == 0 {
		return t
	}
	rows := make([]int, m)
	for i := range rows {
		rows[i] = i
	}
	t.idx = make([]int, 0, m)
	t.axis = make([]int, 0, m)
	t.left = make([]int, 0, m)
	t.right = make([]int, 0, m)
	t.root = t.build(rows, 0)
	return t
}

// build recursively constructs the subtree over rows — a subslice of the
// shared backing slice, reordered in place — splitting on depth % dims,
// and returns the node position.
func (t *KDTree) build(rows []int, depth int) int {
	if len(rows) == 0 {
		return -1
	}
	axis := depth % t.dims
	mid := len(rows) / 2
	t.selectMedian(rows, mid, axis)
	node := len(t.idx)
	t.idx = append(t.idx, rows[mid])
	t.axis = append(t.axis, axis)
	t.left = append(t.left, -1)
	t.right = append(t.right, -1)
	// Children are built after the parent is appended, so record the
	// returned positions explicitly. The halves are disjoint subslices of
	// the same backing array — no copies.
	l := t.build(rows[:mid], depth+1)
	r := t.build(rows[mid+1:], depth+1)
	t.left[node] = l
	t.right[node] = r
	return node
}

// rowLess orders row indices by (value on axis, index) — a total order,
// so quickselect partitions see no equal keys and the k-th element is
// exactly the one a full sort would place at position k.
func (t *KDTree) rowLess(a, b, axis int) bool {
	va, vb := t.data.At(a, axis), t.data.At(b, axis)
	if va != vb {
		return va < vb
	}
	return a < b
}

// selectMedian partially orders rows in place so that rows[k] holds the
// k-th element of the (value, index) total order, everything before it
// orders below and everything after orders above — quickselect with a
// deterministic median-of-three pivot.
func (t *KDTree) selectMedian(rows []int, k, axis int) {
	lo, hi := 0, len(rows)-1
	for lo < hi {
		p := t.hoarePartition(rows, lo, hi, axis)
		if k <= p {
			hi = p
		} else {
			lo = p + 1
		}
	}
}

// hoarePartition partitions rows[lo..hi] around a median-of-three pivot
// and returns j such that every element of rows[lo..j] orders at or
// below the pivot and every element of rows[j+1..hi] at or above it,
// with lo ≤ j < hi.
func (t *KDTree) hoarePartition(rows []int, lo, hi, axis int) int {
	mid := int(uint(lo+hi) >> 1)
	if t.rowLess(rows[mid], rows[lo], axis) {
		rows[mid], rows[lo] = rows[lo], rows[mid]
	}
	if t.rowLess(rows[hi], rows[lo], axis) {
		rows[hi], rows[lo] = rows[lo], rows[hi]
	}
	if t.rowLess(rows[hi], rows[mid], axis) {
		rows[hi], rows[mid] = rows[mid], rows[hi]
	}
	pivot := rows[mid]
	i, j := lo-1, hi+1
	for {
		for {
			i++
			if !t.rowLess(rows[i], pivot, axis) {
				break
			}
		}
		for {
			j--
			if !t.rowLess(pivot, rows[j], axis) {
				break
			}
		}
		if i >= j {
			return j
		}
		rows[i], rows[j] = rows[j], rows[i]
	}
}

// neighHeap is a bounded max-heap of (dist, idx) candidates, keeping the k
// best seen so far. Ties order by smaller index (so the worst element is
// the largest (dist, idx) pair, matching the brute-force tie-break).
type neighHeap struct {
	dist []float64
	idx  []int
	k    int
}

func (h *neighHeap) worse(a, b int) bool { // element a is worse than b
	if h.dist[a] != h.dist[b] {
		return h.dist[a] > h.dist[b]
	}
	return h.idx[a] > h.idx[b]
}

func (h *neighHeap) full() bool { return len(h.idx) == h.k }

// wouldAccept reports whether a candidate with the given distance and
// index would enter the heap.
func (h *neighHeap) wouldAccept(d float64, i int) bool {
	if len(h.idx) < h.k {
		return true
	}
	if d != h.dist[0] {
		return d < h.dist[0]
	}
	return i < h.idx[0]
}

func (h *neighHeap) push(d float64, i int) {
	if len(h.idx) < h.k {
		h.dist = append(h.dist, d)
		h.idx = append(h.idx, i)
		j := len(h.idx) - 1
		for j > 0 {
			parent := (j - 1) / 2
			if !h.worse(j, parent) {
				break
			}
			h.swap(j, parent)
			j = parent
		}
		return
	}
	if !h.wouldAccept(d, i) {
		return
	}
	h.dist[0], h.idx[0] = d, i
	h.siftDown(0)
}

func (h *neighHeap) swap(a, b int) {
	h.dist[a], h.dist[b] = h.dist[b], h.dist[a]
	h.idx[a], h.idx[b] = h.idx[b], h.idx[a]
}

func (h *neighHeap) siftDown(j int) {
	n := len(h.idx)
	for {
		l, r := 2*j+1, 2*j+2
		worst := j
		if l < n && h.worse(l, worst) {
			worst = l
		}
		if r < n && h.worse(r, worst) {
			worst = r
		}
		if worst == j {
			return
		}
		h.swap(j, worst)
		j = worst
	}
}

// sortInto orders the heap contents best-first — ascending (dist, idx),
// the brute-force tie-break — in place and copies the indices into dst.
// Insertion sort: k is small and the scratch arrays are reused, so this
// allocates nothing (unlike sort.Slice and a candidate copy per query).
func (h *neighHeap) sortInto(dst []int) {
	for a := 1; a < len(h.idx); a++ {
		d, i := h.dist[a], h.idx[a]
		b := a - 1
		for b >= 0 && (h.dist[b] > d || (h.dist[b] == d && h.idx[b] > i)) {
			h.dist[b+1], h.idx[b+1] = h.dist[b], h.idx[b]
			b--
		}
		h.dist[b+1], h.idx[b+1] = d, i
	}
	copy(dst, h.idx)
}

// reset empties the heap for reuse, keeping the backing arrays.
func (h *neighHeap) reset(k int) {
	h.k = k
	h.dist = h.dist[:0]
	h.idx = h.idx[:0]
}

// Neighbors returns the k nearest rows to row i, excluding i itself,
// ordered by increasing squared Euclidean distance with ties broken by
// index. If fewer than k other rows exist, all of them are returned.
func (t *KDTree) Neighbors(i, k int) []int {
	m := t.data.Rows()
	if i < 0 || i >= m {
		panic(fmt.Sprintf("knn: row %d out of range %d", i, m))
	}
	if k < 0 {
		panic(fmt.Sprintf("knn: negative k %d", k))
	}
	if k == 0 {
		return []int{}
	}
	if k > m-1 {
		k = m - 1
	}
	if k <= 0 {
		return []int{}
	}
	h := &neighHeap{k: k}
	t.nearest(t.data.Row(i), i, h)
	out := make([]int, len(h.idx))
	h.sortInto(out)
	return out
}

// nearest fills h with the best rows for query, skipping row exclude
// (−1 skips none).
func (t *KDTree) nearest(query []float64, exclude int, h *neighHeap) {
	if t.dims == 0 {
		// No columns, so no tree: every distance is 0 and the
		// (distance, index) order is the index order.
		for j := 0; j < t.data.Rows() && !h.full(); j++ {
			if j != exclude {
				h.push(0, j)
			}
		}
		return
	}
	t.search(t.root, query, exclude, h)
}

// search walks the tree, pruning subtrees whose splitting plane is further
// than the current worst accepted neighbour.
func (t *KDTree) search(node int, query []float64, exclude int, h *neighHeap) {
	if node == -1 {
		return
	}
	row := t.idx[node]
	if row != exclude {
		h.push(mat.SqDist(query, t.data.Row(row)), row)
	}
	axis := t.axis[node]
	delta := query[axis] - t.data.At(row, axis)
	var near, far int
	if delta < 0 {
		near, far = t.left[node], t.right[node]
	} else {
		near, far = t.right[node], t.left[node]
	}
	t.search(near, query, exclude, h)
	// The far side can only contain closer points if the plane distance
	// beats the current worst; with ties possible, use ≤.
	if !h.full() || delta*delta <= h.dist[0] {
		t.search(far, query, exclude, h)
	}
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
	if m := t.data.Rows(); k > m {
		k = m
	}
	if k == 0 {
		return []int{}
	}
	h := &neighHeap{k: k}
	t.nearest(q, -1, h)
	out := make([]int, len(h.idx))
	h.sortInto(out)
	return out
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
// Every row has exactly min(k, m−1) neighbours, so all lists live in one
// flat backing slice and each chunk reuses a single candidate heap:
// O(1) allocations per worker instead of several per row, which is what
// makes the million-row pair-sampling build practical.
func (t *KDTree) AllNeighborsWorkers(k, workers int) [][]int {
	m := t.data.Rows()
	out := make([][]int, m)
	if m == 0 {
		return out
	}
	if k < 0 {
		panic(fmt.Sprintf("knn: negative k %d", k))
	}
	keff := k
	if keff > m-1 {
		keff = m - 1
	}
	flat := make([]int, m*keff)
	par.Chunks(m).Run(workers, func(_, lo, hi int) {
		h := &neighHeap{
			dist: make([]float64, 0, keff),
			idx:  make([]int, 0, keff),
		}
		for i := lo; i < hi; i++ {
			dst := flat[i*keff : (i+1)*keff : (i+1)*keff]
			h.reset(keff)
			if keff > 0 {
				t.nearest(t.data.Row(i), i, h)
				h.sortInto(dst)
			}
			out[i] = dst
		}
	})
	return out
}
