package ifair

// blockRows is the size of the record blocks SGD shuffles: a 1024-row
// batch mixes 64 of them. Larger blocks evaluate fewer rows per batch
// but make batches less i.i.d.; in the block-order ablation
// (EXPERIMENTS.md) 32- to 128-record blocks raised credit's held-out
// loss at m = 100k and the default learning rate, 16-record blocks
// did not.
const blockRows = 16

// Blocks implements optimize.BatchObjective: the records in
// breadth-first order over the fairness-pair graph, cut into blocks of
// at most blockRows records (built by newObjective for SGD problems).
// Partners of a record's pairs mostly share its block, so a batch of
// shuffled blocks transforms few records beyond its own, while the
// shuffle keeps batches close to i.i.d. across the data. Without pairs
// (µ = 0) every block is one record in index order, and SGD's block
// shuffle is the plain record shuffle.
func (o *objective) Blocks() (order, off []int) { return o.order, o.blockOff }

// graphBlocks orders the m rows of adj breadth first, starting each
// connected component at its lowest unvisited row and visiting
// neighbours in adjacency order, and cuts each component's stretch of
// the order into blocks of blockRows rows (the last one shorter), so no
// block spans two components. It returns the order and the CSR block
// offsets.
func graphBlocks(m int, adj *adjacency) (order, off []int) {
	order = make([]int, 0, m)
	off = make([]int, 1, m/blockRows+2) // a connected graph's block count, +1
	seen := make([]bool, m)
	for s := 0; s < m; s++ {
		if seen[s] {
			continue
		}
		start := len(order)
		seen[s] = true
		order = append(order, s)
		for h := start; h < len(order) && len(adj.off) > 0; h++ {
			r := order[h]
			for _, nb := range adj.other[adj.off[r]:adj.off[r+1]] {
				if !seen[nb] {
					seen[nb] = true
					order = append(order, int(nb))
				}
			}
		}
		for lo := start + blockRows; lo < len(order); lo += blockRows {
			off = append(off, lo)
		}
		off = append(off, len(order))
	}
	return order, off
}

// EvalBatch implements optimize.BatchObjective: the sub-objective
//
//	L_B = λ·Σ_{i∈B} ‖x̃_i − x_i‖² + µ·Σ_{p owned by B} (d(x̃_i, x̃_j) − t_p)²
//
// over the batch records B, with its gradient in the packed θ layout.
// Partner records of owned pairs are transformed — the gradient flows
// through both endpoints of every pair — but contribute no utility term,
// so summing L_B over one epoch's batches counts each term of Def. 9
// exactly once. The batch runs through the full objective's evaluation
// (eval) over its own list, chunked with internal/par, so it is
// bit-identical for every Workers value.
func (o *objective) EvalBatch(batch []int, theta, grad []float64) float64 {
	return o.eval(o.batchList(batch), theta, grad)
}

// batchList assembles batch's evaluation list in o.batch: the batch
// records, then the unseen partners of the pairs they own, with the
// owned pairs rewritten to list rows (in batch order, then pair order)
// and indexed by the same adjacency builder as the full list. The list
// and the evaluation scratch are reserved for the worst case of the
// batch length — every record owning the most pairs any record owns,
// every partner distinct — so an SGD epoch, whose first batch is its
// largest, allocates nothing after warm-up.
func (o *objective) batchList(batch []int) *evalList {
	if o.pos == nil {
		o.buildOwnership()
	}
	maxRows := min(o.m, len(batch)*(1+o.maxOwned))
	maxPairs := len(batch) * o.maxOwned
	o.reserve(maxRows, maxPairs)
	l := &o.batch
	l.reserve(maxRows, maxPairs)

	for _, i := range batch {
		o.pos[i] = int32(len(l.rows))
		l.rows = append(l.rows, i)
	}
	l.nUtil = len(batch)
	for _, i := range batch {
		for p := o.ownOff[i]; p < o.ownOff[i+1]; p++ {
			j := o.full.pairs[p].j
			if o.pos[j] < 0 {
				o.pos[j] = int32(len(l.rows))
				l.rows = append(l.rows, j)
			}
			l.pairs = append(l.pairs, pair{int(o.pos[i]), int(o.pos[j])})
			l.target = append(l.target, o.full.target[p])
		}
	}
	for _, rec := range l.rows {
		o.pos[rec] = -1
	}
	l.adj.build(len(l.rows), l.pairs)
	return l
}

// buildOwnership builds the ownership index and the all-absent position
// map on the first EvalBatch.
func (o *objective) buildOwnership() {
	o.ownOff = make([]int32, o.m+1)
	for _, pr := range o.full.pairs {
		o.ownOff[pr.i+1]++
	}
	for i := 0; i < o.m; i++ {
		o.maxOwned = max(o.maxOwned, int(o.ownOff[i+1]))
		o.ownOff[i+1] += o.ownOff[i]
	}
	o.pos = make([]int32, o.m)
	for i := range o.pos {
		o.pos[i] = -1
	}
}
