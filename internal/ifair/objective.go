package ifair

import (
	"math"
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/knn"
	"repro/internal/mat"
	"repro/internal/optimize"
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
// Gradients are analytic for every supported configuration — any Minkowski
// exponent p ≥ 1, the optional 1/p root, and both membership kernels; a
// central-difference fallback remains available for validation
// (Options.ForceNumericalGradient).
type objective struct {
	x      *mat.Dense // M×N training records
	pairs  []pair     // fairness pairs
	target []float64  // d(x*_i, x*_j) for each pair, squared Euclidean on non-protected dims
	opts   Options
	prm    kernel.Params // distance and membership configuration of opts
	m, n   int

	// scratch buffers reused across evaluations. The five M-row matrices
	// are allocated lazily on the first full-objective evaluation
	// (ensureFull): a clone that only ever trains through the mini-batch
	// path never pays for them — its scratch is batch-sized (see batch.go).
	alpha []float64
	u     *mat.Dense // M×K memberships
	raw   *mat.Dense // M×K rootless kernel distances s_ik (for the root chain)
	gval  *mat.Dense // M×K kernel weights g(D_ik) (InverseKernel backward)
	xt    *mat.Dense // M×N transformed records
	g     *mat.Dense // M×N upstream gradient ∂L/∂x̃

	// batch is the mini-batch evaluation state (lazily built by EvalBatch).
	batch *batchState

	// Chunked-parallel state. Both plans are fixed by the problem sizes
	// alone (records and fairness pairs respectively), so every partial
	// buffer below has exactly one cell per chunk that runs and every
	// reduction combines them in chunk order — the evaluation is
	// bit-identical for any Workers value. See internal/par.
	workers   int
	planRec   par.Plan      // chunk plan over the m records
	planPair  par.Plan      // chunk plan over the fairness pairs
	lossRec   par.Scalars   // per-chunk forward losses
	lossPair  par.Scalars   // per-chunk fairness losses
	q         [][]float64   // upstream on u, one buffer per record chunk
	gradVPart *par.Partials // partial prototype gradients (backward)
	gradAPart *par.Partials // partial α gradients (backward)

	// Fairness backward indices: pairCoef[p] holds 4µ·e_p from the loss
	// pass, and the CSR adjacency (adjOff, adjPair, adjOther) lists for
	// each record the pairs it appears in plus the opposite endpoint.
	// Each record's upstream gradient row is then owned by exactly one
	// chunk, so no per-chunk m×n partial matrices are needed and the
	// accumulation order per row is fixed by construction.
	pairCoef []float64
	adjOff   []int32
	adjPair  []int32
	adjOther []int32
}

// newObjective precomputes the fairness pair list and target distances.
func newObjective(x *mat.Dense, opts Options, rng *rand.Rand) *objective {
	m, n := x.Dims()
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	o := &objective{
		x:       x,
		opts:    opts,
		prm:     kernel.Params{P: opts.P, TakeRoot: opts.TakeRoot, Membership: opts.Kernel.membership()},
		m:       m,
		n:       n,
		alpha:   make([]float64, n),
		workers: workers,
	}
	if opts.Mu > 0 {
		o.pairs = buildPairs(x, opts, rng)
		nonProt := nonProtectedIndices(n, opts.Protected)
		o.target = make([]float64, len(o.pairs))
		for p, pr := range o.pairs {
			o.target[p] = maskedSqDist(x.Row(pr.i), x.Row(pr.j), nonProt)
		}
		o.adjOff, o.adjPair, o.adjOther = buildPairAdjacency(m, o.pairs)
	}
	o.initScratch()
	return o
}

// ensureFull allocates the M-row evaluation scratch on first use. The
// full-objective paths (Eval, lossOnly) need one row of each matrix per
// record; the mini-batch path never calls this.
func (o *objective) ensureFull() {
	if o.u != nil {
		return
	}
	o.u = mat.NewDense(o.m, o.opts.K)
	o.raw = mat.NewDense(o.m, o.opts.K)
	o.gval = mat.NewDense(o.m, o.opts.K)
	o.xt = mat.NewDense(o.m, o.n)
	o.g = mat.NewDense(o.m, o.n)
	if len(o.pairs) > 0 {
		o.pairCoef = make([]float64, len(o.pairs))
	}
}

// initScratch sizes the per-chunk evaluation buffers from the two
// chunk plans. Everything here is private mutable state; the problem
// data (x, pairs, target, adjacency) is shared between clones.
func (o *objective) initScratch() {
	o.planRec = par.Chunks(o.m)
	o.planPair = par.Chunks(len(o.pairs))
	o.lossRec = o.planRec.NewScalars()
	o.lossPair = o.planPair.NewScalars()
	o.gradVPart = o.planRec.NewPartials(o.opts.K * o.n)
	o.gradAPart = o.planRec.NewPartials(o.n)
	o.q = make([][]float64, o.planRec.NumChunks())
	for c := range o.q {
		o.q[c] = make([]float64, o.opts.K)
	}
}

// buildPairAdjacency converts the pair list into a CSR index: for each
// record i, adjPair[adjOff[i]:adjOff[i+1]] are the pairs i appears in
// and adjOther the opposite endpoints, in ascending pair order.
func buildPairAdjacency(m int, pairs []pair) (off, pairIdx, other []int32) {
	off = make([]int32, m+1)
	for _, pr := range pairs {
		off[pr.i+1]++
		off[pr.j+1]++
	}
	for i := 0; i < m; i++ {
		off[i+1] += off[i]
	}
	pairIdx = make([]int32, 2*len(pairs))
	other = make([]int32, 2*len(pairs))
	next := make([]int32, m)
	copy(next, off[:m])
	for p, pr := range pairs {
		e := next[pr.i]
		pairIdx[e], other[e] = int32(p), int32(pr.j)
		next[pr.i]++
		e = next[pr.j]
		pairIdx[e], other[e] = int32(p), int32(pr.i)
		next[pr.j]++
	}
	return off, pairIdx, other
}

// clone returns an objective sharing o's immutable problem data — the
// training matrix, the fairness pair list, the target distances and the
// pair adjacency — with private scratch buffers, so clones can be
// evaluated concurrently (one per restart under FitContext).
func (o *objective) clone() *objective {
	c := &objective{
		x:        o.x,
		pairs:    o.pairs,
		target:   o.target,
		adjOff:   o.adjOff,
		adjPair:  o.adjPair,
		adjOther: o.adjOther,
		opts:     o.opts,
		prm:      o.prm,
		m:        o.m,
		n:        o.n,
		alpha:    make([]float64, o.n),
		workers:  o.workers,
	}
	c.initScratch()
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
	if k <= 0 {
		k = DefaultNeighborK
	}
	tree := opts.prebuiltNeighbors
	if tree == nil {
		tree = knn.NewKDTree(nonProtectedMatrix(x, opts.Protected))
	}
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

// paramLen returns the packed parameter-vector length.
func (o *objective) paramLen() int { return o.n + o.opts.K*o.n }

// decode unpacks θ into α (via α = a²) and a K×N prototype view.
func (o *objective) decode(theta []float64) (alpha []float64, protos []float64) {
	for j := 0; j < o.n; j++ {
		o.alpha[j] = theta[j] * theta[j]
	}
	return o.alpha, theta[o.n:]
}

// Eval implements optimize.Objective.
func (o *objective) Eval(theta, grad []float64) float64 {
	o.ensureFull()
	if o.opts.analyticGradient() {
		return o.evalAnalytic(theta, grad)
	}
	loss := o.lossOnly(theta)
	optimize.NumericalGradient(o.lossOnly, theta, grad, 1e-6)
	return loss
}

// forward computes memberships u, transforms x̃ and the utility loss (plus
// its upstream gradient into o.g when withGrad is set). Raw distances and
// kernel weights are recorded for the backward pass.
func (o *objective) forward(alpha, protos []float64, withGrad bool) float64 {
	o.planRec.Run(o.workers, func(c, lo, hi int) {
		o.lossRec[c] = o.forwardRange(alpha, protos, withGrad, lo, hi)
	})
	return o.lossRec.Sum()
}

// forwardRange runs the forward pass for records [lo, hi).
func (o *objective) forwardRange(alpha, protos []float64, withGrad bool, lo, hi int) float64 {
	var loss float64
	for i := lo; i < hi; i++ {
		var gi []float64
		if withGrad {
			gi = o.g.Row(i)
		}
		loss += o.forwardRecord(alpha, protos, o.x.Row(i),
			o.u.Row(i), o.raw.Row(i), o.gval.Row(i), o.xt.Row(i), gi, true)
	}
	return loss
}

// forwardRecord runs kernel.Forward for one record — memberships into
// ui, raw distances into ri, InverseKernel weights into gv and the
// transform into xti — and returns its weighted utility loss (0 unless withUtil).
// When gi is non-nil it is zeroed and, with withUtil, receives the
// utility upstream gradient; the fairness pass accumulates on top of it
// afterwards. Shared by the full-objective range pass and the mini-batch
// path, which differ only in which rows they hand in.
func (o *objective) forwardRecord(alpha, protos, xi, ui, ri, gv, xti, gi []float64, withUtil bool) float64 {
	kernel.Forward(o.prm, protos, alpha, xi, ri, gv, ui, xti)
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

// fairnessLoss accumulates the pairwise loss; with withGrad it also adds
// the upstream gradients into o.g. The loss pass chunks over pairs with
// per-chunk partial cells and records each pair's gradient coefficient
// 4µ·e_p; the gradient pass then chunks over records, where each chunk
// exclusively owns its rows of o.g and folds in the incident pairs from
// the precomputed adjacency in ascending pair order. Both passes are
// therefore bit-identical for every worker count, with no per-chunk
// m×n partial matrices.
func (o *objective) fairnessLoss(withGrad bool) float64 {
	if o.opts.Mu == 0 || len(o.pairs) == 0 {
		return 0
	}
	xd, nn, mu := o.xt.Data(), o.n, o.opts.Mu
	o.planPair.Run(o.workers, func(c, lo, hi int) {
		var loss float64
		for p := lo; p < hi; p++ {
			pr := o.pairs[p]
			d := mat.SqDist(xd[pr.i*nn:(pr.i+1)*nn], xd[pr.j*nn:(pr.j+1)*nn])
			e := d - o.target[p]
			loss += mu * e * e
			if withGrad {
				o.pairCoef[p] = 4 * mu * e
			}
		}
		o.lossPair[c] = loss
	})
	if withGrad {
		o.planRec.Run(o.workers, func(_, lo, hi int) {
			o.fairnessBackwardRange(lo, hi)
		})
	}
	return o.lossPair.Sum()
}

// fairnessBackwardRange adds the fairness upstream gradient of records
// [lo, hi) into their rows of o.g. For record i with incident pairs p
// (opposite endpoint j_p) the contribution is
//
//	∂L_fair/∂x̃_i = Σ_p w_p·(x̃_i − x̃_{j_p}) = (Σ_p w_p)·x̃_i − Σ_p w_p·x̃_{j_p}
//
// with w_p = 4µ·e_p from the loss pass. The weighted opposite rows are
// subtracted from g_i edge by edge, then the (Σw)·x̃_i term is added
// once; each record's row is owned by exactly one chunk and the edge
// order is fixed by the adjacency, so the result is independent of the
// worker count.
func (o *objective) fairnessBackwardRange(lo, hi int) {
	xd, gd, nn := o.xt.Data(), o.g.Data(), o.n
	for i := lo; i < hi; i++ {
		start, end := o.adjOff[i], o.adjOff[i+1]
		if start == end {
			continue
		}
		gi := gd[i*nn : (i+1)*nn]
		var wsum float64
		for e := start; e < end; e++ {
			w := o.pairCoef[o.adjPair[e]]
			wsum += w
			xo := xd[int(o.adjOther[e])*nn:]
			xo = xo[:len(gi)]
			for n, v := range xo {
				gi[n] -= w * v
			}
		}
		xti := xd[i*nn : (i+1)*nn]
		for n, v := range xti {
			gi[n] += wsum * v
		}
	}
}

// lossOnly evaluates the objective without gradients; it also serves as the
// finite-difference target for ForceNumericalGradient.
func (o *objective) lossOnly(theta []float64) float64 {
	o.ensureFull()
	alpha, protos := o.decode(theta)
	loss := o.forward(alpha, protos, false)
	return loss + o.fairnessLoss(false)
}

// evalAnalytic computes the loss and its exact gradient. Derivation: with
// raw distance s_ik = Σ_n α_n·|x_in − v_kn|^p, kernel input
// D_ik = s_ik^{1/p} (or s_ik without the root), membership weight
// g_ik = g(D_ik) and u = g/Σg, the chain rule gives for upstream
// q_ik = ∂L/∂u_ik (here q_ik = (∂L/∂x̃_i)·v_k):
//
//	∂L/∂D_ik = (g'(D_ik)/S_i)·(q_ik − Σ_l u_il·q_il)
//	           with g'/S = −u        for g = exp(−D)
//	           and  g'/S = −u·g      for g = 1/(1+D)
//	∂D/∂s    = 1 (no root) or (1/p)·s^{1/p−1}
//	∂s/∂v_kn = −α_n·p·|x_in − v_kn|^{p−1}·sign(x_in − v_kn)
//	∂s/∂α_n  = |x_in − v_kn|^p
//	∂L/∂a_n  = ∂L/∂α_n · 2a_n                     (α = a²)
//
// plus the direct path ∂L/∂v_kn += Σ_i u_ik·(∂L/∂x̃_i)_n.
func (o *objective) evalAnalytic(theta, grad []float64) float64 {
	alpha, protos := o.decode(theta)
	for i := range grad {
		grad[i] = 0
	}
	gradA := grad[:o.n]
	gradV := grad[o.n:]

	loss := o.forward(alpha, protos, true)
	loss += o.fairnessLoss(true)

	o.gradVPart.Reset()
	o.gradAPart.Reset()
	o.planRec.Run(o.workers, func(c, lo, hi int) {
		o.backwardRange(alpha, protos, o.q[c],
			o.gradVPart.Buf(c, gradV), o.gradAPart.Buf(c, gradA), lo, hi)
	})
	o.gradVPart.ReduceInto(gradV)
	o.gradAPart.ReduceInto(gradA)

	// chain through α = a².
	for n := 0; n < o.n; n++ {
		gradA[n] *= 2 * theta[n]
	}
	return loss
}

// backwardRange backpropagates records [lo, hi) into the given gradient
// buffers, using q as per-chunk scratch.
func (o *objective) backwardRange(alpha, protos, q, gradV, gradA []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		o.backwardRecord(alpha, protos, q, gradV, gradA,
			o.x.Row(i), o.u.Row(i), o.raw.Row(i), o.gval.Row(i), o.g.Row(i))
	}
}

// backwardRecord backpropagates one record — given its forward rows ui,
// ri, gvi and upstream gradient gi — into gradV and gradA, using q as
// K-sized scratch. Shared by the chunked full-objective pass and the
// mini-batch path.
func (o *objective) backwardRecord(alpha, protos, q, gradV, gradA, xi, ui, ri, gvi, gi []float64) {
	k := o.opts.K
	p := o.opts.P
	var qbar float64
	for kk := 0; kk < k; kk++ {
		q[kk] = mat.Dot(gi, protos[kk*o.n:(kk+1)*o.n])
		qbar += ui[kk] * q[kk]
	}
	for kk := 0; kk < k; kk++ {
		uik := ui[kk]
		centred := q[kk] - qbar
		var dLdD float64
		switch o.opts.Kernel {
		case InverseKernel:
			dLdD = -uik * gvi[kk] * centred
		default:
			dLdD = -uik * centred
		}
		dLds := dLdD
		if o.opts.TakeRoot {
			s := ri[kk]
			if s < 1e-12 {
				s = 1e-12
			}
			dLds *= math.Pow(s, 1/p-1) / p
		}
		vk := protos[kk*o.n : (kk+1)*o.n]
		gv := gradV[kk*o.n : (kk+1)*o.n]
		if p == 2 {
			for n := 0; n < o.n; n++ {
				diff := xi[n] - vk[n]
				gv[n] += uik*gi[n] - dLds*2*alpha[n]*diff
				gradA[n] += dLds * diff * diff
			}
		} else {
			for n := 0; n < o.n; n++ {
				diff := xi[n] - vk[n]
				ad := math.Abs(diff)
				pow1 := math.Pow(ad, p-1)
				sign := 1.0
				if diff < 0 {
					sign = -1
				}
				gv[n] += uik*gi[n] - dLds*alpha[n]*p*pow1*sign
				gradA[n] += dLds * pow1 * ad
			}
		}
	}
}

// Losses evaluates the two loss components (unweighted by λ and µ) of a
// fitted model on data x, for reporting and tests: the reconstruction loss
// of Def. 4 and the fairness loss of Def. 5 over the objective's pair set.
// An invalid model or data of the wrong width is reported as an error.
func Losses(m *Model, x *mat.Dense, opts Options) (util, fair float64, err error) {
	rows, _ := x.Dims()
	xt, err := m.TransformChecked(x)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < rows; i++ {
		util += mat.SqDist(x.Row(i), xt.Row(i))
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	pairs := buildPairs(x, opts, rng)
	nonProt := nonProtectedIndices(x.Cols(), opts.Protected)
	for _, pr := range pairs {
		d := mat.SqDist(xt.Row(pr.i), xt.Row(pr.j))
		t := maskedSqDist(x.Row(pr.i), x.Row(pr.j), nonProt)
		e := d - t
		fair += e * e
	}
	return util, fair, nil
}
