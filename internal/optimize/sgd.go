package optimize

import (
	"errors"
	"math"
	"math/rand"
)

// BatchObjective is a decomposable objective: a sum of per-item terms
// that can be evaluated — with its gradient — on a subset of the items.
// It is the contract mini-batch SGD trains against.
//
// Blocks groups the items into the units SGD shuffles, in CSR form:
// order is a permutation of 0..items−1 and block b is
// order[off[b]:off[b+1]], with off[0] = 0 and off[len(off)−1] =
// len(order). Items whose terms share work (e.g. records joined by a
// pair term) belong in the same block, so a batch cut from few blocks
// evaluates little beyond its own items; singleton blocks make every
// batch an i.i.d. draw. SGD reads but never modifies the slices.
//
// EvalBatch must return the value of the sub-objective restricted to the
// given item indices and write its gradient into grad (full parameter
// length, overwritten). Implementations must not retain batch, x or
// grad. The batch slice is a contiguous window of the epoch's shuffled
// blocks, concatenated, and is never empty.
type BatchObjective interface {
	// Blocks returns the item order and its block offsets.
	Blocks() (order, off []int)
	// EvalBatch evaluates the sub-objective over the items in batch.
	EvalBatch(batch []int, x, grad []float64) float64
}

// SGDSettings configures mini-batch stochastic gradient descent. The
// embedded Settings fields are reinterpreted per epoch: MaxIterations is
// the epoch budget, and Callback fires once per epoch (so cancellation
// and tracing work exactly as they do for the full-batch optimizer). The small-improvement test compares successive epoch
// losses. GradTol is ignored — a stochastic gradient never converges to
// zero.
type SGDSettings struct {
	Settings
	// BatchSize is the number of items per mini-batch. Default 256. The
	// final batch of an epoch may be smaller.
	BatchSize int
	// LearnRate is the per-item step size: each batch steps
	// x -= (LearnRate/len(batch))·∇f_batch, so the step scale is
	// independent of the batch size. Default 0.01.
	LearnRate float64
	// Seed drives the block shuffle. Epoch e reshuffles the block
	// permutation, in place, with a stream derived only from (Seed, e),
	// so a run is deterministic in Seed regardless of how the objective
	// parallelises its evaluations.
	Seed int64
}

func (s *SGDSettings) fill() {
	s.Settings.fill()
	if s.BatchSize <= 0 {
		s.BatchSize = 256
	}
	if s.LearnRate <= 0 {
		s.LearnRate = 0.01
	}
}

// SGD minimises a decomposable objective with mini-batch stochastic
// gradient descent: every epoch reshuffles the objective's blocks
// (seeded, without replacement), concatenates them and cuts the result
// into consecutive batches, taking one normalised gradient step per
// batch. Because each item appears in exactly one batch per epoch, the
// summed batch losses of an epoch approximate the full objective along
// the trajectory — that sum is the per-epoch Iteration.F reported to
// Callback and tested for small improvement.
//
// Divergence is hardened as in LBFGS: a non-finite batch loss or
// gradient never updates the parameters — the iterate reverts to the
// last finite point, the learning rate is halved and the epoch
// continues. When the rate collapses the run stops with Status Diverged
// carrying the last finite iterate, never poisoned parameters.
//
// x0 is not modified.
func SGD(obj BatchObjective, x0 []float64, settings SGDSettings) (Result, error) {
	settings.fill()
	n := len(x0)
	if n == 0 {
		return Result{}, ErrEmptyProblem
	}
	order, off := obj.Blocks()
	items := len(order)
	if items == 0 {
		return Result{}, errors.New("optimize: batch objective has no items")
	}
	batch := settings.BatchSize
	if batch > items {
		batch = items
	}

	x := append([]float64(nil), x0...)
	xGood := append([]float64(nil), x0...)
	grad := make([]float64, n)
	// blocks is the block permutation, reshuffled in place every epoch;
	// perm is the item order it concatenates to.
	blocks := make([]int, len(off)-1)
	for b := range blocks {
		blocks[b] = b
	}
	perm := make([]int, 0, items)

	evals := 0
	f0 := obj.EvalBatch(order[:batch], x, grad)
	evals++
	if math.IsNaN(f0) || math.IsInf(f0, 0) {
		return Result{X: x, F: f0, Status: Diverged},
			errors.New("optimize: objective is not finite at the initial point")
	}

	lr := settings.LearnRate
	prevEpochLoss := math.NaN()
	var lastF, lastGradNorm float64
	result := func(status Status, epochs int) Result {
		return Result{X: x, F: lastF, Iterations: epochs, Status: status}
	}

	for epoch := 0; epoch < settings.MaxIterations; epoch++ {
		// Seeded without-replacement block shuffle: the epoch's stream
		// depends only on (Seed, epoch), via the same splitmix64
		// derivation as the restart pool. With singleton blocks in
		// identity order it is the plain item shuffle.
		rng := rand.New(rand.NewSource(RestartSeed(settings.Seed, epoch+1)))
		for i := len(blocks) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			blocks[i], blocks[j] = blocks[j], blocks[i]
		}
		perm = perm[:0]
		for _, b := range blocks {
			perm = append(perm, order[off[b]:off[b+1]]...)
		}

		var epochLoss float64
		sawNonFinite := false
		for lo := 0; lo < items; lo += batch {
			hi := lo + batch
			if hi > items {
				hi = items
			}
			b := perm[lo:hi]
			fB := obj.EvalBatch(b, x, grad)
			evals++
			if math.IsNaN(fB) || math.IsInf(fB, 0) || !allFinite(grad) {
				// Reject the poisoned region as the L-BFGS line search
				// rejects a bad trial: back off to the last finite
				// iterate and shrink the rate.
				copy(x, xGood)
				lr /= 2
				sawNonFinite = true
				if lr < 1e-18 {
					return result(Diverged, epoch), nil
				}
				continue
			}
			copy(xGood, x)
			lastF, lastGradNorm = fB, infNorm(grad)
			epochLoss += fB
			step := lr / float64(len(b))
			for i := range x {
				x[i] -= step * grad[i]
			}
		}

		it := Iteration{Iter: epoch, F: epochLoss, GradNorm: lastGradNorm, Step: lr, Evals: evals}
		if settings.Callback != nil {
			if settings.Callback(it) {
				lastF = epochLoss
				return result(Stopped, epoch+1), nil
			}
		}
		if !sawNonFinite {
			if !math.IsNaN(prevEpochLoss) &&
				math.Abs(prevEpochLoss-epochLoss) <= funcTol*(1+math.Abs(epochLoss)) {
				lastF = epochLoss
				return result(SmallImprovement, epoch+1), nil
			}
			prevEpochLoss = epochLoss
		}
		lastF = epochLoss
	}
	return result(MaxIterations, settings.MaxIterations), nil
}
