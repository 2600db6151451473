package lfr

import (
	"math"
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/par"
)

// objective evaluates the LFR loss and its analytic gradient with respect
// to the packed parameters
//
//	θ = [b_0 … b_{K−1}, v_{0,0} … v_{K−1,N−1}]
//
// where w_k = σ(b_k) keeps prototype label scores in (0, 1).
//
// The statistical-parity term uses the smooth surrogate |e| ≈ √(e² + ε),
// which keeps L-BFGS line searches well-behaved near e = 0.
//
// Both passes chunk over records via internal/par: the forward pass
// reduces the loss and the per-group mean memberships through per-chunk
// partial cells, the parity term runs serially between the passes, and
// the backward pass reduces the b/V gradients the same way — so the
// evaluation is bit-identical for every Workers value.
type objective struct {
	x         *mat.Dense
	y         []float64 // 0/1 labels
	protected []bool
	opts      Options
	m, n      int
	nProt     float64 // protected group size
	nUnprot   float64

	// scratch
	u  *mat.Dense  // memberships
	xh *mat.Dense  // reconstructions
	g  *mat.Dense  // upstream ∂L/∂x̂
	q  [][]float64 // upstream on u, one buffer per record chunk
	w  []float64   // decoded w_k

	workers        int
	plan           par.Plan    // chunk plan over the m records
	lossC          par.Scalars // per-chunk forward losses
	meanProt       []float64   // mean membership, protected group
	meanUnprot     []float64   // mean membership, complement group
	meanProtPart   *par.Partials
	meanUnprotPart *par.Partials
	gradBPart      *par.Partials
	gradVPart      *par.Partials
	dParity        []float64 // ∂L_z/∂e_k · φ'(e_k)
	dLdyhat        []float64 // per-record ∂L_y/∂ŷ, reused by backward
}

const parityEps = 1e-8

func newObjective(x *mat.Dense, y, protected []bool, opts Options) *objective {
	m, n := x.Dims()
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	o := &objective{
		x:         x,
		protected: protected,
		opts:      opts,
		m:         m,
		n:         n,
		u:         mat.NewDense(m, opts.K),
		xh:        mat.NewDense(m, n),
		g:         mat.NewDense(m, n),
		w:         make([]float64, opts.K),
		workers:   workers,
	}
	o.y = make([]float64, m)
	for i, yi := range y {
		if yi {
			o.y[i] = 1
		}
		if protected[i] {
			o.nProt++
		} else {
			o.nUnprot++
		}
	}
	o.plan = par.Chunks(m)
	o.lossC = o.plan.NewScalars()
	o.meanProt = make([]float64, opts.K)
	o.meanUnprot = make([]float64, opts.K)
	o.meanProtPart = o.plan.NewPartials(opts.K)
	o.meanUnprotPart = o.plan.NewPartials(opts.K)
	o.gradBPart = o.plan.NewPartials(opts.K)
	o.gradVPart = o.plan.NewPartials(opts.K * n)
	o.q = make([][]float64, o.plan.NumChunks())
	for c := range o.q {
		o.q[c] = make([]float64, opts.K)
	}
	o.dParity = make([]float64, opts.K)
	o.dLdyhat = make([]float64, m)
	return o
}

func (o *objective) paramLen() int { return o.opts.K + o.opts.K*o.n }

func (o *objective) initialTheta(rng *rand.Rand) []float64 {
	theta := make([]float64, o.paramLen())
	for k := 0; k < o.opts.K; k++ {
		theta[k] = rng.NormFloat64() * 0.1 // w_k ≈ 0.5
	}
	protos := theta[o.opts.K:]
	for k := 0; k < o.opts.K; k++ {
		src := o.x.Row(rng.Intn(o.m))
		row := protos[k*o.n : (k+1)*o.n]
		for j := range row {
			row[j] = src[j] + 0.1*rng.NormFloat64()
		}
	}
	return theta
}

func (o *objective) modelFromTheta(theta []float64) *Model {
	w := make([]float64, o.opts.K)
	for k := range w {
		w[k] = sigmoid(theta[k])
	}
	protos := mat.NewDense(o.opts.K, o.n)
	copy(protos.Data(), theta[o.opts.K:])
	return &Model{Prototypes: protos, W: w}
}

// Eval implements optimize.Objective with a full analytic gradient.
func (o *objective) Eval(theta, grad []float64) float64 {
	k := o.opts.K
	for i := range grad {
		grad[i] = 0
	}
	gradB := grad[:k]
	gradV := grad[k:]
	protos := theta[k:]
	for kk := 0; kk < k; kk++ {
		o.w[kk] = sigmoid(theta[kk])
	}

	// ---- forward pass (chunked over records) ----
	clear(o.meanProt)
	clear(o.meanUnprot)
	o.meanProtPart.Reset()
	o.meanUnprotPart.Reset()
	o.plan.Run(o.workers, func(c, lo, hi int) {
		o.lossC[c] = o.forwardRange(protos, o.q[c],
			o.meanProtPart.Buf(c, o.meanProt),
			o.meanUnprotPart.Buf(c, o.meanUnprot), lo, hi)
	})
	o.meanProtPart.ReduceInto(o.meanProt)
	o.meanUnprotPart.ReduceInto(o.meanUnprot)
	loss := o.lossC.Sum()

	// parity loss with smooth |·| (serial: K terms between the passes)
	var dParity []float64
	if o.opts.Az > 0 && o.nProt > 0 && o.nUnprot > 0 {
		dParity = o.dParity
		for kk := 0; kk < k; kk++ {
			e := o.meanProt[kk] - o.meanUnprot[kk]
			phi := math.Sqrt(e*e + parityEps)
			loss += o.opts.Az * phi
			dParity[kk] = o.opts.Az * e / phi
		}
	}

	// ---- backward pass (chunked over records) ----
	o.gradBPart.Reset()
	o.gradVPart.Reset()
	o.plan.Run(o.workers, func(c, lo, hi int) {
		o.backwardRange(protos, dParity, o.q[c],
			o.gradBPart.Buf(c, gradB), o.gradVPart.Buf(c, gradV), lo, hi)
	})
	o.gradBPart.ReduceInto(gradB)
	o.gradVPart.ReduceInto(gradV)
	return loss
}

// forwardRange computes memberships, reconstructions and the upstream
// ∂L/∂x̂ for records [lo, hi), accumulating the per-group mean
// memberships into the given chunk-local buffers and returning the
// chunk's loss contribution. raw is chunk-local K-sized scratch for
// kernel.Forward's distances (the chunk's backward q buffer, which is
// free until the backward pass).
func (o *objective) forwardRange(protos, raw, meanProt, meanUnprot []float64, lo, hi int) float64 {
	var loss float64
	for i := lo; i < hi; i++ {
		xi := o.x.Row(i)
		ui := o.u.Row(i)
		xhi := o.xh.Row(i)
		kernel.Forward(protos, nil, xi, raw, ui, xhi)
		gi := o.g.Row(i)
		clear(gi)
		var yhat float64
		for kk, uk := range ui {
			yhat += uk * o.w[kk]
			if o.protected[i] {
				meanProt[kk] += uk / o.nProt
			} else {
				meanUnprot[kk] += uk / o.nUnprot
			}
		}
		// reconstruction loss
		if o.opts.Ax > 0 {
			for n := 0; n < o.n; n++ {
				r := xhi[n] - xi[n]
				loss += o.opts.Ax * r * r
				gi[n] += 2 * o.opts.Ax * r
			}
		}
		// prediction loss (clamped cross-entropy)
		if o.opts.Ay > 0 {
			const eps = 1e-9
			p := math.Min(math.Max(yhat, eps), 1-eps)
			loss += o.opts.Ay * (-o.y[i]*math.Log(p) - (1-o.y[i])*math.Log(1-p))
			o.dLdyhat[i] = o.opts.Ay * (p - o.y[i]) / (p * (1 - p))
		}
	}
	return loss
}

// backwardRange backpropagates records [lo, hi) into the given gradient
// buffers, using q (length K) as chunk-local scratch.
func (o *objective) backwardRange(protos, dParity, q, gradB, gradV []float64, lo, hi int) {
	k := o.opts.K
	for i := lo; i < hi; i++ {
		xi := o.x.Row(i)
		ui := o.u.Row(i)
		gi := o.g.Row(i)
		// total upstream on u_ik
		var qbar float64
		for kk := 0; kk < k; kk++ {
			qk := mat.Dot(gi, protos[kk*o.n:(kk+1)*o.n]) // via x̂
			qk += o.dLdyhat[i] * o.w[kk]                 // via ŷ
			if dParity != nil {
				if o.protected[i] {
					qk += dParity[kk] / o.nProt
				} else {
					qk -= dParity[kk] / o.nUnprot
				}
			}
			q[kk] = qk
			qbar += ui[kk] * qk
		}
		for kk := 0; kk < k; kk++ {
			uik := ui[kk]
			cik := uik * (q[kk] - qbar)
			vk := protos[kk*o.n : (kk+1)*o.n]
			gv := gradV[kk*o.n : (kk+1)*o.n]
			for n := 0; n < o.n; n++ {
				// ∂z_ik/∂v_kn = 2(x_in − v_kn) for z = −‖x−v‖².
				gv[n] += uik*gi[n] + cik*2*(xi[n]-vk[n])
			}
			// ∂L/∂b_k via ŷ: dL/dŷ · u_ik · σ'(b_k)
			gradB[kk] += o.dLdyhat[i] * uik * o.w[kk] * (1 - o.w[kk])
		}
	}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
