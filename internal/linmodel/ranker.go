package linmodel

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/optimize"
)

// PairwiseRanker is a linear pairwise learning-to-rank model (RankNet-style
// with a linear scorer): it learns weights w such that f(x) = w·x + b
// orders within-query candidate pairs correctly, minimising the pairwise
// logistic loss
//
//	L = Σ_{(i,j): y_i > y_j} log(1 + exp(−(f(x_i) − f(x_j)))) + λ‖w‖².
//
// It complements the pointwise linear regression of the main experiments
// and demonstrates that iFair representations plug into a genuinely
// different ranking objective.
type PairwiseRanker struct {
	// Weights holds the learned coefficients; the last entry is the bias
	// (which cancels in pairwise differences but is kept for score
	// calibration against the pointwise model's output range).
	Weights []float64
}

// RankerOptions configures FitPairwiseRanker.
type RankerOptions struct {
	// Seed drives pair sampling.
	Seed int64
}

const (
	// rankerL2 is the ridge penalty.
	rankerL2 = 1e-4
	// maxPairsPerQuery caps the sampled preference pairs per query.
	maxPairsPerQuery = 200
	// rankerMaxIterations bounds L-BFGS.
	rankerMaxIterations = 150
)

// FitPairwiseRanker trains on x (M×N) with ground-truth scores y and
// queries given as row-index groups; preference pairs are formed within
// queries only.
func FitPairwiseRanker(x *mat.Dense, y []float64, queries [][]int, opts RankerOptions) (*PairwiseRanker, error) {
	m, n := x.Dims()
	if m == 0 || n == 0 {
		return nil, ErrNoData
	}
	if len(y) != m {
		panic(fmt.Sprintf("linmodel: %d scores for %d rows", len(y), m))
	}

	type pref struct{ hi, lo int }
	var pairs []pref
	rng := rand.New(rand.NewSource(opts.Seed))
	for _, q := range queries {
		var qPairs []pref
		for a := 0; a < len(q); a++ {
			for b := a + 1; b < len(q); b++ {
				i, j := q[a], q[b]
				switch {
				case y[i] > y[j]:
					qPairs = append(qPairs, pref{hi: i, lo: j})
				case y[j] > y[i]:
					qPairs = append(qPairs, pref{hi: j, lo: i})
				}
			}
		}
		if len(qPairs) > maxPairsPerQuery {
			rng.Shuffle(len(qPairs), func(a, b int) { qPairs[a], qPairs[b] = qPairs[b], qPairs[a] })
			qPairs = qPairs[:maxPairsPerQuery]
		}
		pairs = append(pairs, qPairs...)
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("linmodel: no preference pairs (all scores tied or no queries)")
	}

	obj := optimize.ObjectiveFunc(func(w, grad []float64) float64 {
		for i := range grad {
			grad[i] = 0
		}
		var loss float64
		inv := 1 / float64(len(pairs))
		for _, pr := range pairs {
			xi := x.Row(pr.hi)
			xj := x.Row(pr.lo)
			var margin float64
			for f := 0; f < n; f++ {
				margin += w[f] * (xi[f] - xj[f])
			}
			// log(1 + exp(−margin)) computed stably.
			loss += inv * log1pExp(-margin)
			coef := -inv * sigmoid(-margin)
			for f := 0; f < n; f++ {
				grad[f] += coef * (xi[f] - xj[f])
			}
		}
		for f := 0; f < n; f++ {
			loss += rankerL2 * w[f] * w[f]
			grad[f] += 2 * rankerL2 * w[f]
		}
		return loss
	})

	res, err := optimize.LBFGS(obj, make([]float64, n+1), optimize.Settings{MaxIterations: rankerMaxIterations})
	if err != nil {
		return nil, err
	}
	return &PairwiseRanker{Weights: res.X}, nil
}

// Predict returns the learned scores w·x + b for each row of x.
func (r *PairwiseRanker) Predict(x *mat.Dense) []float64 {
	m, n := x.Dims()
	if n+1 != len(r.Weights) {
		panic(fmt.Sprintf("linmodel: %d features, ranker has %d weights", n, len(r.Weights)))
	}
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		z := r.Weights[n]
		for j, v := range x.Row(i) {
			z += r.Weights[j] * v
		}
		out[i] = z
	}
	return out
}

// log1pExp computes log(1 + exp(z)) without overflow.
func log1pExp(z float64) float64 {
	if z > 35 {
		return z
	}
	if z < -35 {
		return math.Exp(z)
	}
	return math.Log1p(math.Exp(z))
}
