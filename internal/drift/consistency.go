package drift

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/knn"
	"repro/internal/mat"
	"repro/internal/stats"
)

// Consistency is a live estimator of the paper's yNN individual-fairness
// metric for a serving model version. The offline metric asks: do the k
// nearest neighbours of a record receive similar outcomes? The live
// analogue asks the same of served requests: for each sampled request
// (x, x̃) it finds x's k nearest reference inputs via a kd-tree over the
// held reference set and scores
//
//	c(x) = 1 − clamp(mean_j ‖x̃ − T(ref_j)‖ / scale, 0, 1)
//
// where T(ref_j) is the same version's transform of the j-th reference
// row and scale is the mean distance between seeded random pairs of
// reference transforms — the distance a version puts between unrelated
// records. A version that maps neighbouring inputs to nearby
// representations scores near 1; one that scatters them scores near 0.
// Because every version is scored against its own reference transforms,
// the statistic is comparable across versions (see EXPERIMENTS.md for
// how it relates to the offline yNN metric).
//
// Safe for concurrent Observe/Value/Reset.
type Consistency struct {
	refX  *mat.Dense
	refT  *mat.Dense
	tree  *knn.KDTree
	k     int
	scale float64

	mu  sync.Mutex
	acc stats.Welford
}

// DefaultNeighbors is the kNN width of the live estimator; matches the
// k=10 the experiments use for the offline yNN metric.
const DefaultNeighbors = 10

// NewConsistency builds an estimator over a reference input set and its
// transforms under one model version (row i of refT is the transform of
// row i of refX). k <= 0 selects DefaultNeighbors. The seed fixes the
// random reference pairs defining the distance scale, so the same
// (reference, version) always yields the same estimator.
func NewConsistency(refX, refT *mat.Dense, k int, seed int64) (*Consistency, error) {
	m, _ := refX.Dims()
	mt, _ := refT.Dims()
	if m == 0 {
		return nil, fmt.Errorf("drift: empty reference set")
	}
	if m != mt {
		return nil, fmt.Errorf("drift: reference inputs %d rows, transforms %d", m, mt)
	}
	if k <= 0 {
		k = DefaultNeighbors
	}
	if k > m {
		k = m
	}
	c := &Consistency{
		refX: refX,
		refT: refT,
		tree: knn.NewKDTree(refX),
		k:    k,
	}
	// Distance scale: mean ‖T(a) − T(b)‖ over seeded random reference
	// pairs. With a degenerate transform (all rows identical) the scale
	// is 0 and every observation scores 0 consistency unless it matches
	// exactly — a collapsed representation should not look "consistent".
	rng := rand.New(rand.NewSource(seed))
	pairs := 256
	if pairs > m*(m-1)/2 {
		pairs = m * (m - 1) / 2
	}
	var sum float64
	n := 0
	for p := 0; p < pairs; p++ {
		a, b := rng.Intn(m), rng.Intn(m)
		if a == b {
			continue
		}
		sum += math.Sqrt(mat.SqDist(refT.Row(a), refT.Row(b)))
		n++
	}
	if n > 0 {
		c.scale = sum / float64(n)
	}
	return c, nil
}

// Observe scores one served (input, transform) pair, folds it into the
// running estimate, and returns the per-row consistency. Inputs of the
// wrong width return NaN and are not accumulated.
func (c *Consistency) Observe(x, xt []float64) float64 {
	if len(x) != c.refX.Cols() || len(xt) != c.refT.Cols() {
		return math.NaN()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	nbrs := c.tree.Query(x, c.k)
	if len(nbrs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, j := range nbrs {
		sum += math.Sqrt(mat.SqDist(xt, c.refT.Row(j)))
	}
	mean := sum / float64(len(nbrs))
	var score float64
	if c.scale > 0 {
		score = 1 - stats.Clamp(mean/c.scale, 0, 1)
	} else if mean == 0 {
		score = 1
	}
	c.acc.Add(score)
	return score
}

// Value returns the running mean consistency and the number of
// observations it is over. With no observations the mean is NaN so a
// guard cannot mistake "no data" for "perfectly consistent".
func (c *Consistency) Value() (mean float64, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acc.N == 0 {
		return math.NaN(), 0
	}
	return c.acc.Mean(), c.acc.N
}

// Moments returns the running mean, the population variance of the
// per-row scores, and the observation count — everything a guard needs
// to attach a standard error to a comparison of two estimators. With no
// observations mean and variance are NaN.
func (c *Consistency) Moments() (mean, variance float64, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acc.N == 0 {
		return math.NaN(), math.NaN(), 0
	}
	return c.acc.Mean(), c.acc.Variance(), c.acc.N
}

// Reset clears the running estimate (the reference set and scale are
// retained).
func (c *Consistency) Reset() {
	c.mu.Lock()
	c.acc = stats.Welford{}
	c.mu.Unlock()
}
