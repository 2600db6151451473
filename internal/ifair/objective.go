package ifair

import (
	"math/rand"
	"slices"

	"repro/internal/kernel"
	"repro/internal/knn"
	"repro/internal/mat"
	"repro/internal/par"
)

// pair is one (i, j) record pair entering the fairness loss.
type pair struct{ i, j int }

// objective evaluates L = λ·L_util + µ·L_fair (Def. 9) and its gradient
// with respect to the packed parameter vector
//
//	θ = [a_0 … a_{N−1}, v_{0,0} … v_{K−1,N−1}]
//
// where α_n = a_n² keeps attribute weights non-negative under the
// unconstrained optimizer.
//
// Gradients are analytic; the tests check them against
// optimize.CheckGradient's central differences.
//
// The full objective and the mini-batch sub-objective are one evaluation
// (eval) over different evaluation lists: full holds every record and
// pair, batch is reassembled for each EvalBatch (see batch.go).
type objective struct {
	x     *mat.Dense // M×N training records
	opts  Options
	m, n  int
	alpha []float64

	// full is the full objective's evaluation list: the identity over the
	// records, all of them owning their utility terms, and every fairness
	// pair owned, its target d(x*_i, x*_j) the squared Euclidean distance
	// on the non-protected dims. Like x it is problem data, shared
	// read-only between clones.
	full evalList

	// order and blockOff are the SGD block order over the records
	// (Blocks), built only when the problem trains by SGD; likewise
	// shared between clones.
	order, blockOff []int

	// Mini-batch state, built on the first EvalBatch: the reusable list,
	// the CSR ownership index (record i owns the pairs
	// full.pairs[ownOff[i]:ownOff[i+1]]; every builder emits pairs in
	// non-decreasing pair.i order, so each pair is owned by exactly one
	// record), the largest owned-pair count, and pos, the record →
	// list-row map used while assembling a list (−1 for absent records,
	// restored after every assembly).
	batch    evalList
	ownOff   []int32
	maxOwned int
	pos      []int32

	// Evaluation scratch, one row per list row. reserve grows it to the
	// largest list evaluated so far: M rows once the full objective has
	// run, batch-bounded for a clone that only trains on mini-batches.
	u        *mat.Dense // memberships
	xt       *mat.Dense // transformed records
	g        *mat.Dense // upstream gradient ∂L/∂x̃
	pairCoef []float64  // 4µ·e_p of each owned pair, from the loss pass

	// Chunked-parallel state (internal/par). The plans depend only on the
	// list's row and pair counts, the per-chunk buffers are sized from
	// those plans, and every reduction combines them in chunk order — so
	// an evaluation is bit-identical for any Workers value.
	workers   int
	lossRec   par.Scalars   // per-chunk utility losses
	lossPair  par.Scalars   // per-chunk fairness losses
	q         [][]float64   // K-sized scratch per row chunk: distances (forward), then q (backward)
	gradVPart *par.Partials // partial prototype gradients
	gradAPart *par.Partials // partial α gradients

	// run is what the chunk functions read during one evaluation. The
	// functions are bound once (bind), so handing them to par.Run
	// allocates no closure per evaluation.
	run        evalRun
	forwardFn  func(c, lo, hi int)
	pairFn     func(c, lo, hi int)
	backwardFn func(c, lo, hi int)
}

// evalList is the work of one evaluation: the sub-objective
//
//	λ·Σ_{e<nUtil} ‖x̃_e − x_e‖² + µ·Σ_{owned p=(e,f)} (d(x̃_e, x̃_f) − t_p)²
//
// over list rows e, f. rows names the training record of each list row:
// the records owning their utility terms first, then the partners of
// the pairs they own, which are transformed so the fairness gradient
// can flow through both endpoints.
type evalList struct {
	rows   []int     // training record of each list row
	nUtil  int       // rows[:nUtil] own their utility terms
	pairs  []pair    // owned fairness pairs, endpoints as list rows
	target []float64 // target distance of each owned pair
	adj    adjacency // owned pairs incident to each list row
}

// reserve grows the list's buffers, emptied, to hold rows rows and pairs
// owned pairs without reallocating.
func (l *evalList) reserve(rows, pairs int) {
	l.rows = slices.Grow(l.rows[:0], rows)
	l.pairs = slices.Grow(l.pairs[:0], pairs)
	l.target = slices.Grow(l.target[:0], pairs)
	l.adj.off = slices.Grow(l.adj.off[:0], rows+1)
	l.adj.pair = slices.Grow(l.adj.pair[:0], 2*pairs)
	l.adj.other = slices.Grow(l.adj.other[:0], 2*pairs)
}

// adjacency is a CSR index of a pair list: row r appears in the pairs
// pair[off[r]:off[r+1]], in ascending pair order, opposite the rows
// other[off[r]:off[r+1]]. It gives each row's fairness upstream gradient
// to exactly one chunk with a fixed accumulation order, so no per-chunk
// row-sized partials are needed.
type adjacency struct{ off, pair, other []int32 }

// build indexes pairs over a list of rows rows, reusing the buffers'
// capacity.
func (a *adjacency) build(rows int, pairs []pair) {
	a.off = slices.Grow(a.off[:0], rows+1)[:rows+1]
	a.pair = slices.Grow(a.pair[:0], 2*len(pairs))[:2*len(pairs)]
	a.other = slices.Grow(a.other[:0], 2*len(pairs))[:2*len(pairs)]
	clear(a.off)
	for _, pr := range pairs {
		a.off[pr.i]++
		a.off[pr.j]++
	}
	// off[r] becomes the end of row r's entries; filling the pairs in
	// descending order while decrementing each end leaves off[r] at the
	// row's start and its entries in ascending pair order.
	var end int32
	for r := 0; r < rows; r++ {
		end += a.off[r]
		a.off[r] = end
	}
	a.off[rows] = end
	for p := len(pairs) - 1; p >= 0; p-- {
		pr := pairs[p]
		a.off[pr.i]--
		a.pair[a.off[pr.i]], a.other[a.off[pr.i]] = int32(p), int32(pr.j)
		a.off[pr.j]--
		a.pair[a.off[pr.j]], a.other[a.off[pr.j]] = int32(p), int32(pr.i)
	}
}

// evalRun is the state one evaluation hands its chunk functions.
type evalRun struct {
	l            *evalList
	protos       []float64
	withGrad     bool
	gradA, gradV []float64 // the caller's gradient, split at N
}

// newObjective precomputes the fairness pair list, the target distances,
// the full evaluation list and, for an SGD problem, the block order.
func newObjective(x *mat.Dense, opts Options, rng *rand.Rand) *objective {
	m, n := x.Dims()
	o := &objective{
		x:       x,
		opts:    opts,
		m:       m,
		n:       n,
		alpha:   make([]float64, n),
		workers: max(opts.Workers, 1),
	}
	o.full = evalList{rows: make([]int, m), nUtil: m}
	for i := range o.full.rows {
		o.full.rows[i] = i
	}
	if opts.Mu > 0 {
		pairs := buildPairs(x, opts, rng)
		nonProt := nonProtectedIndices(n, opts.Protected)
		target := make([]float64, len(pairs))
		for p, pr := range pairs {
			target[p] = maskedSqDist(x.Row(pr.i), x.Row(pr.j), nonProt)
		}
		o.full.pairs, o.full.target = pairs, target
		o.full.adj.build(m, pairs)
	}
	if opts.BatchSize > 0 {
		o.order, o.blockOff = graphBlocks(m, &o.full.adj)
	}
	o.bind()
	return o
}

// bind points the chunk functions at o.
func (o *objective) bind() {
	o.forwardFn, o.pairFn, o.backwardFn = o.forwardChunk, o.pairChunk, o.backwardChunk
}

// clone returns an objective sharing o's immutable problem data — the
// training matrix, the full evaluation list and the block order — with
// private scratch, so clones can be evaluated concurrently
// (one per restart under FitContext).
func (o *objective) clone() *objective {
	c := &objective{
		x:        o.x,
		full:     o.full,
		order:    o.order,
		blockOff: o.blockOff,
		opts:     o.opts,
		m:        o.m,
		n:        o.n,
		alpha:    make([]float64, o.n),
		workers:  o.workers,
	}
	c.bind()
	return c
}

// buildPairs constructs the fairness pair list for the configured mode:
// all pairs, PairSamples uniform partners per record, or PairSamples
// partners drawn from each record's k-nearest-neighbour pool. Every mode
// emits pairs in non-decreasing owner (pair.i) order — the mini-batch
// sub-objective's CSR ownership index depends on it.
func buildPairs(x *mat.Dense, opts Options, rng *rand.Rand) []pair {
	m := x.Rows()
	if opts.Fairness == PairwiseFairness {
		pairs := make([]pair, 0, m*(m-1)/2)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				pairs = append(pairs, pair{i, j})
			}
		}
		return pairs
	}
	if m < 2 {
		return nil // no distinct partner exists
	}
	if opts.Fairness == NeighborFairness {
		return buildNeighborPairs(x, opts, rng)
	}
	pairs := make([]pair, 0, m*opts.PairSamples)
	for i := 0; i < m; i++ {
		for s := 0; s < opts.PairSamples; s++ {
			// Resample on self-collision instead of dropping the draw, so
			// every record gets exactly PairSamples partners and the pair
			// budget matches the paper's m·samples count.
			j := rng.Intn(m)
			for j == i {
				j = rng.Intn(m)
			}
			pairs = append(pairs, pair{i, j})
		}
	}
	return pairs
}

// buildNeighborPairs pairs each record with PairSamples partners sampled
// without replacement from its NeighborK nearest neighbours in the
// non-protected subspace (exact k-d tree queries). The neighbour lists
// are computed by AllNeighborsWorkers, which is bit-identical for every
// Workers value, and the per-record sampling consumes the rng serially
// in record order — so the pair list is a pure function of (data,
// options, seed) regardless of the worker count.
func buildNeighborPairs(x *mat.Dense, opts Options, rng *rand.Rand) []pair {
	m := x.Rows()
	k := opts.NeighborK
	tree := knn.NewKDTree(nonProtectedMatrix(x, opts.Protected))
	neigh := tree.AllNeighborsWorkers(k, opts.Workers)
	pairs := make([]pair, 0, m*opts.PairSamples)
	scratch := make([]int, k)
	for i := 0; i < m; i++ {
		cand := neigh[i]
		if opts.PairSamples >= len(cand) {
			// Fewer neighbours than samples (tiny datasets, or
			// PairSamples > NeighborK): pair with the whole pool.
			for _, j := range cand {
				pairs = append(pairs, pair{i, j})
			}
			continue
		}
		// Partial Fisher–Yates over a scratch copy: the first PairSamples
		// entries are a uniform without-replacement draw from the pool.
		s := scratch[:len(cand)]
		copy(s, cand)
		for t := 0; t < opts.PairSamples; t++ {
			r := t + rng.Intn(len(s)-t)
			s[t], s[r] = s[r], s[t]
			pairs = append(pairs, pair{i, s[t]})
		}
	}
	return pairs
}

// nonProtectedMatrix projects x onto its non-protected columns — the
// subspace Def. 1 measures — returning x itself when nothing is
// protected.
func nonProtectedMatrix(x *mat.Dense, protected []int) *mat.Dense {
	m, n := x.Dims()
	idx := nonProtectedIndices(n, protected)
	if len(idx) == n {
		return x
	}
	sub := mat.NewDense(m, len(idx))
	for i := 0; i < m; i++ {
		src, dst := x.Row(i), sub.Row(i)
		for c, j := range idx {
			dst[c] = src[j]
		}
	}
	return sub
}

// nonProtectedIndices returns the column indices not listed as protected.
func nonProtectedIndices(n int, protected []int) []int {
	isProt := make([]bool, n)
	for _, p := range protected {
		isProt[p] = true
	}
	out := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if !isProt[j] {
			out = append(out, j)
		}
	}
	return out
}

// maskedSqDist is the squared Euclidean distance restricted to the given
// coordinate subset: d(x*_i, x*_j)² of Def. 1.
func maskedSqDist(a, b []float64, idx []int) float64 {
	var s float64
	for _, j := range idx {
		d := a[j] - b[j]
		s += d * d
	}
	return s
}

// decode unpacks θ into α (via α = a²) and a K×N prototype view.
func (o *objective) decode(theta []float64) (alpha []float64, protos []float64) {
	for j := 0; j < o.n; j++ {
		o.alpha[j] = theta[j] * theta[j]
	}
	return o.alpha, theta[o.n:]
}

// Eval implements optimize.Objective.
func (o *objective) Eval(theta, grad []float64) float64 {
	return o.eval(&o.full, theta, grad)
}

// reserve grows the evaluation scratch to lists of up to rows rows and
// pairs owned pairs. It never shrinks, so once the first (largest)
// mini-batch has sized it an SGD epoch allocates nothing.
func (o *objective) reserve(rows, pairs int) {
	if o.u == nil || rows > o.u.Rows() {
		k := o.opts.K
		o.u, o.xt, o.g = mat.NewDense(rows, k), mat.NewDense(rows, o.n), mat.NewDense(rows, o.n)
	}
	if pairs > len(o.pairCoef) {
		o.pairCoef = make([]float64, pairs)
	}
}

// sizeChunks fits the per-chunk buffers to the plans of the list about
// to be evaluated, rebuilding them only when a chunk count changes (for
// lists of at least par.MaxChunks rows and pairs, never after the first
// evaluation). Every cell a reduction reads is therefore written by the
// evaluation that reads it.
func (o *objective) sizeChunks(rows, pairs par.Plan) {
	if o.gradVPart == nil || len(o.lossRec) != rows.NumChunks() {
		o.lossRec = rows.NewScalars()
		o.gradVPart = rows.NewPartials(o.opts.K * o.n)
		o.gradAPart = rows.NewPartials(o.n)
		o.q = make([][]float64, rows.NumChunks())
		for c := range o.q {
			// Spare capacity of one cache line keeps concurrent chunks'
			// scratch off each other's lines, as par.Partials does.
			o.q[c] = make([]float64, o.opts.K, o.opts.K+8)
		}
	}
	if len(o.lossPair) != pairs.NumChunks() {
		o.lossPair = pairs.NewScalars()
	}
}

// eval is the one implementation of Def. 9: it evaluates the
// sub-objective of list l at θ and, when grad is non-nil, writes its
// gradient in the packed θ layout. Three passes run chunked over the
// list with internal/par:
//
//  1. forward (forwardChunk): memberships and transforms of every row,
//     the utility terms of the owning rows and their upstream gradients;
//  2. fairness loss (pairChunk) over the owned pairs, recording each
//     pair's gradient coefficient;
//  3. backward (backwardChunk): per row, the fairness upstream gradient
//     and then backpropagation into per-chunk gradient partials — row
//     e's backward reads only its own finished g row, so the two fuse.
//
// Derivation of pass 3: with distance d_ik = Σ_n α_n·(x_in − v_kn)² and
// u_i = softmax(−d_i), the chain rule gives for upstream q_ik = ∂L/∂u_ik
// (here q_ik = (∂L/∂x̃_i)·v_k):
//
//	∂L/∂d_ik = −u_ik·(q_ik − Σ_l u_il·q_il)
//	∂d/∂v_kn = −2α_n·(x_in − v_kn)
//	∂d/∂α_n  = (x_in − v_kn)²
//	∂L/∂a_n  = ∂L/∂α_n · 2a_n                     (α = a²)
//
// plus the direct path ∂L/∂v_kn += Σ_i u_ik·(∂L/∂x̃_i)_n.
func (o *objective) eval(l *evalList, theta, grad []float64) float64 {
	_, protos := o.decode(theta)
	o.reserve(len(l.rows), len(l.pairs))
	rowPlan, pairPlan := par.Chunks(len(l.rows)), par.Chunks(len(l.pairs))
	o.sizeChunks(rowPlan, pairPlan)
	o.run = evalRun{l: l, protos: protos, withGrad: grad != nil}
	defer func() { o.run = evalRun{} }() // retain neither θ nor grad

	rowPlan.Run(o.workers, o.forwardFn)
	loss := o.lossRec.Sum()
	pairPlan.Run(o.workers, o.pairFn)
	loss += o.lossPair.Sum()
	if grad == nil {
		return loss
	}

	clear(grad)
	o.run.gradA, o.run.gradV = grad[:o.n], grad[o.n:]
	o.gradVPart.Reset()
	o.gradAPart.Reset()
	rowPlan.Run(o.workers, o.backwardFn)
	o.gradVPart.ReduceInto(o.run.gradV)
	o.gradAPart.ReduceInto(o.run.gradA)
	// chain through α = a².
	for n := 0; n < o.n; n++ {
		grad[n] *= 2 * theta[n]
	}
	return loss
}

// forwardChunk is pass 1 over list rows [lo, hi).
func (o *objective) forwardChunk(c, lo, hi int) {
	r := &o.run
	var loss float64
	for e := lo; e < hi; e++ {
		var ge []float64
		if r.withGrad {
			ge = o.g.Row(e)
		}
		loss += o.forwardRecord(o.alpha, r.protos, o.x.Row(r.l.rows[e]),
			o.u.Row(e), o.q[c], o.xt.Row(e), ge, e < r.l.nUtil)
	}
	o.lossRec[c] = loss
}

// forwardRecord runs kernel.Forward for one record — memberships into
// ui and the transform into xti, with raw as K-sized scratch for the
// distances — and returns its weighted utility loss (0 unless withUtil).
// When gi is non-nil it is zeroed and, with withUtil, receives the
// utility upstream gradient; the fairness pass accumulates on top of it
// afterwards.
func (o *objective) forwardRecord(alpha, protos, xi, ui, raw, xti, gi []float64, withUtil bool) float64 {
	kernel.Forward(protos, alpha, xi, raw, ui, xti)
	clear(gi)
	var loss float64
	if withUtil && o.opts.Lambda > 0 {
		if gi != nil {
			for n := 0; n < o.n; n++ {
				r := xti[n] - xi[n]
				loss += o.opts.Lambda * r * r
				gi[n] += 2 * o.opts.Lambda * r
			}
		} else {
			for n := 0; n < o.n; n++ {
				r := xti[n] - xi[n]
				loss += o.opts.Lambda * r * r
			}
		}
	}
	return loss
}

// pairChunk is pass 2 over owned pairs [lo, hi): the fairness loss and,
// for a gradient evaluation, each pair's coefficient 4µ·e_p.
func (o *objective) pairChunk(c, lo, hi int) {
	r := &o.run
	xd, nn, mu := o.xt.Data(), o.n, o.opts.Mu
	var loss float64
	for p := lo; p < hi; p++ {
		pr := r.l.pairs[p]
		d := mat.SqDist(xd[pr.i*nn:(pr.i+1)*nn], xd[pr.j*nn:(pr.j+1)*nn])
		e := d - r.l.target[p]
		loss += mu * e * e
		if r.withGrad {
			o.pairCoef[p] = 4 * mu * e
		}
	}
	o.lossPair[c] = loss
}

// backwardChunk is pass 3 over list rows [lo, hi), accumulating into
// the chunk's gradient partials.
func (o *objective) backwardChunk(c, lo, hi int) {
	r := &o.run
	gradV, gradA := o.gradVPart.Buf(c, r.gradV), o.gradAPart.Buf(c, r.gradA)
	fair := len(r.l.pairs) > 0
	for e := lo; e < hi; e++ {
		if fair {
			o.fairnessBackward(&r.l.adj, e)
		}
		o.backwardRecord(o.alpha, r.protos, o.q[c], gradV, gradA,
			o.x.Row(r.l.rows[e]), o.u.Row(e), o.g.Row(e))
	}
}

// fairnessBackward adds the fairness upstream gradient of list row i
// into its row of o.g. For incident pairs p (opposite row j_p) the
// contribution is
//
//	∂L_fair/∂x̃_i = Σ_p w_p·(x̃_i − x̃_{j_p}) = (Σ_p w_p)·x̃_i − Σ_p w_p·x̃_{j_p}
//
// with w_p = 4µ·e_p from the loss pass. The weighted opposite rows are
// subtracted from g_i edge by edge in adjacency order, then the
// (Σw)·x̃_i term is added once.
func (o *objective) fairnessBackward(adj *adjacency, i int) {
	start, end := adj.off[i], adj.off[i+1]
	if start == end {
		return
	}
	xd, nn := o.xt.Data(), o.n
	gi := o.g.Row(i)
	var wsum float64
	for e := start; e < end; e++ {
		w := o.pairCoef[adj.pair[e]]
		wsum += w
		xo := xd[int(adj.other[e])*nn:]
		xo = xo[:len(gi)]
		for n, v := range xo {
			gi[n] -= w * v
		}
	}
	for n, v := range xd[i*nn : (i+1)*nn] {
		gi[n] += wsum * v
	}
}

// backwardRecord backpropagates one record — given its memberships ui
// and upstream gradient gi — into gradV and gradA, using q as K-sized
// scratch.
func (o *objective) backwardRecord(alpha, protos, q, gradV, gradA, xi, ui, gi []float64) {
	k := o.opts.K
	var qbar float64
	for kk := 0; kk < k; kk++ {
		q[kk] = mat.Dot(gi, protos[kk*o.n:(kk+1)*o.n])
		qbar += ui[kk] * q[kk]
	}
	for kk := 0; kk < k; kk++ {
		uik := ui[kk]
		dLdd := -uik * (q[kk] - qbar)
		vk := protos[kk*o.n : (kk+1)*o.n]
		gv := gradV[kk*o.n : (kk+1)*o.n]
		for n := 0; n < o.n; n++ {
			diff := xi[n] - vk[n]
			gv[n] += uik*gi[n] - dLdd*2*alpha[n]*diff
			gradA[n] += dLdd * diff * diff
		}
	}
}

// Losses evaluates the two loss components (unweighted by λ and µ) of a
// fitted model on data x, for reporting and tests: the reconstruction loss
// of Def. 4 and the fairness loss of Def. 5 over the pairs and targets a
// fit with opts would train on (opts.Mu only weights that set, so it is
// ignored here). opts gets the same defaults and validation as Fit. An
// invalid model, invalid options or data of the wrong width is reported
// as an error.
func Losses(m *Model, x *mat.Dense, opts Options) (util, fair float64, err error) {
	rows, cols := x.Dims()
	opts.Mu = 1
	if err := opts.fill(rows, cols); err != nil {
		return 0, 0, err
	}
	xt, err := m.TransformChecked(x)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < rows; i++ {
		util += mat.SqDist(x.Row(i), xt.Row(i))
	}
	o := newObjective(x, opts, rand.New(rand.NewSource(opts.Seed)))
	for p, pr := range o.full.pairs {
		e := mat.SqDist(xt.Row(pr.i), xt.Row(pr.j)) - o.full.target[p]
		fair += e * e
	}
	return util, fair, nil
}
