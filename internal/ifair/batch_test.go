package ifair

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mat"
)

// TestEvalBatchPartitionSumsToFullObjective is the correctness anchor of
// the mini-batch path: because every record's utility term and every
// fairness pair is owned by exactly one batch, summing the sub-objective
// (and its gradient) over any partition of the records must reproduce
// the full objective up to floating-point reassociation — and exactly,
// bit for bit, for the single in-order batch of every record, whose
// evaluation list is the full objective's.
func TestEvalBatchPartitionSumsToFullObjective(t *testing.T) {
	for _, mode := range []FairnessMode{PairwiseFairness, SampledFairness, NeighborFairness} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			m, n := 40, 4
			x := randomData(rng, m, n)
			opts := Options{
				K: 3, Lambda: 0.8, Mu: 1.2, Protected: []int{3},
				Fairness: mode, PairSamples: 4, NeighborK: 8,
			}
			if err := opts.fill(m, n); err != nil {
				t.Fatal(err)
			}
			obj := newObjective(x, opts, rng)
			theta := initialTheta(x, opts, rng)

			fullGrad := make([]float64, obj.paramLen())
			fullLoss := obj.Eval(theta, fullGrad)

			for _, batchSize := range []int{1, 7, 16, 40} {
				sumGrad := make([]float64, obj.paramLen())
				grad := make([]float64, obj.paramLen())
				var sumLoss float64
				for lo := 0; lo < m; lo += batchSize {
					hi := lo + batchSize
					if hi > m {
						hi = m
					}
					batch := make([]int, hi-lo)
					for i := range batch {
						batch[i] = lo + i
					}
					sumLoss += obj.EvalBatch(batch, theta, grad)
					for i := range grad {
						sumGrad[i] += grad[i]
					}
				}
				if batchSize == m {
					if sumLoss != fullLoss {
						t.Fatalf("one batch: loss %v != full loss %v", sumLoss, fullLoss)
					}
					for i := range fullGrad {
						if sumGrad[i] != fullGrad[i] {
							t.Fatalf("one batch: grad[%d] = %v, full %v", i, sumGrad[i], fullGrad[i])
						}
					}
					continue
				}
				if math.Abs(sumLoss-fullLoss) > 1e-9*(1+math.Abs(fullLoss)) {
					t.Fatalf("batch=%d: summed loss %v != full loss %v", batchSize, sumLoss, fullLoss)
				}
				for i := range fullGrad {
					if math.Abs(sumGrad[i]-fullGrad[i]) > 1e-9*(1+math.Abs(fullGrad[i])) {
						t.Fatalf("batch=%d: grad[%d] = %v, full %v", batchSize, i, sumGrad[i], fullGrad[i])
					}
				}
			}
		})
	}
}

// TestEvalBatchShuffledBatches: ownership does not depend on batches
// being sorted or contiguous — any permutation partition sums to the
// full objective too.
func TestEvalBatchShuffledBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, n := 30, 3
	x := randomData(rng, m, n)
	opts := Options{K: 2, Lambda: 1, Mu: 1, Fairness: NeighborFairness, PairSamples: 3, NeighborK: 6}
	if err := opts.fill(m, n); err != nil {
		t.Fatal(err)
	}
	obj := newObjective(x, opts, rng)
	theta := initialTheta(x, opts, rng)
	full := obj.Eval(theta, make([]float64, obj.paramLen()))

	perm := rng.Perm(m)
	grad := make([]float64, obj.paramLen())
	var sum float64
	for lo := 0; lo < m; lo += 11 {
		hi := lo + 11
		if hi > m {
			hi = m
		}
		sum += obj.EvalBatch(perm[lo:hi], theta, grad)
	}
	if math.Abs(sum-full) > 1e-9*(1+math.Abs(full)) {
		t.Fatalf("shuffled batches sum to %v, full objective %v", sum, full)
	}
}

// TestEvalBatchAllocFree: after the warm-up evaluation, a batch
// evaluation performs zero allocations — the property that keeps SGD
// epochs allocation-flat no matter how large the dataset is.
func TestEvalBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(2))
	m, n := 500, 5
	x := randomData(rng, m, n)
	opts := Options{K: 4, Lambda: 1, Mu: 1, Fairness: NeighborFairness, PairSamples: 4, NeighborK: 8}
	if err := opts.fill(m, n); err != nil {
		t.Fatal(err)
	}
	obj := newObjective(x, opts, rng)
	theta := initialTheta(x, opts, rng)
	grad := make([]float64, obj.paramLen())
	batch := make([]int, 64)
	for i := range batch {
		batch[i] = i * 7 % m
	}
	obj.EvalBatch(batch, theta, grad) // warm-up sizes the scratch
	allocs := testing.AllocsPerRun(10, func() {
		obj.EvalBatch(batch, theta, grad)
	})
	if allocs != 0 {
		t.Fatalf("EvalBatch allocated %.0f objects per call after warm-up, want 0", allocs)
	}
}

// TestEvalBatchCloneSkipsFullScratch: a clone that only trains through
// the batch path must not grow its evaluation scratch to M rows.
func TestEvalBatchCloneSkipsFullScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 100, 3
	x := randomData(rng, m, n)
	opts := Options{K: 2, Lambda: 1, Mu: 1, Fairness: SampledFairness, PairSamples: 2}
	if err := opts.fill(m, n); err != nil {
		t.Fatal(err)
	}
	obj := newObjective(x, opts, rng)
	c := obj.clone()
	if c.u != nil || c.xt != nil || c.g != nil {
		t.Fatal("clone allocated full-evaluation scratch eagerly")
	}
	theta := initialTheta(x, opts, rng)
	grad := make([]float64, c.paramLen())
	c.EvalBatch([]int{0, 1, 2}, theta, grad)
	if rows := c.u.Rows(); rows >= m {
		t.Fatalf("batch evaluation sized the scratch to %d rows, want < %d", rows, m)
	}
	c.Eval(theta, grad) // full path still works on demand
	if rows := c.u.Rows(); rows != m {
		t.Fatalf("full evaluation sized the scratch to %d rows, want %d", rows, m)
	}
}

// TestFitSGDReducesLossAndIsDeterministic: end-to-end mini-batch
// training through FitContext.
func TestFitSGDReducesLossAndIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, n := 120, 4
	x := randomData(rng, m, n)
	opts := Options{
		K: 3, Lambda: 1, Mu: 0.5,
		Fairness: NeighborFairness, PairSamples: 4, NeighborK: 8,
		BatchSize: 32, Epochs: 25, LearnRate: 0.05,
		Seed: 11,
	}
	model, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Loss must improve on the initial point of the same restart seed.
	filled := opts
	if err := filled.fill(m, n); err != nil {
		t.Fatal(err)
	}
	seedRNG := rand.New(rand.NewSource(opts.Seed))
	obj := newObjective(x, filled, seedRNG)
	theta0 := initialTheta(x, filled, seedRNG)
	if loss0 := obj.lossOnly(theta0); model.Loss >= loss0 {
		t.Fatalf("SGD loss %v did not improve on initial %v", model.Loss, loss0)
	}

	again, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if model.Loss != again.Loss {
		t.Fatalf("same seed gave losses %v and %v", model.Loss, again.Loss)
	}
	for i, v := range model.Alpha {
		if again.Alpha[i] != v {
			t.Fatalf("same seed gave different α at %d", i)
		}
	}
}

// TestFitSGDRestartWorkersBitIdentical: parallel restarts share the base
// objective's pair list but clone batch scratch, so the winning model is
// bit-identical for every restart worker count.
func TestFitSGDRestartWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randomData(rng, 80, 3)
	opts := Options{
		K: 2, Lambda: 1, Mu: 1,
		Fairness: NeighborFairness, PairSamples: 3, NeighborK: 6,
		BatchSize: 16, Epochs: 8, LearnRate: 0.03,
		Restarts: 3, Seed: 21,
	}
	want, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range []int{2, 3} {
		opts.RestartWorkers = rw
		got, err := Fit(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Loss != want.Loss {
			t.Fatalf("RestartWorkers=%d: loss %v != serial %v", rw, got.Loss, want.Loss)
		}
		for i := range want.Alpha {
			if math.Float64bits(got.Alpha[i]) != math.Float64bits(want.Alpha[i]) {
				t.Fatalf("RestartWorkers=%d: α differs at %d", rw, i)
			}
		}
	}
}

// TestBatchSizeRejectsNumericalGradient: the batch path has no
// finite-difference fallback.
func TestBatchSizeRejectsNumericalGradient(t *testing.T) {
	opts := Options{K: 2, Lambda: 1, BatchSize: 8, ForceNumericalGradient: true}
	if err := opts.fill(10, 3); err == nil ||
		!strings.Contains(err.Error(), "analytic gradient") {
		t.Fatalf("err = %v, want analytic-gradient requirement", err)
	}
}

// TestPairwiseRowLimit: with the fairness loss active, PairwiseFairness
// must refuse row counts whose O(M²) pair list would be an outage, and
// the error must point at the scalable modes.
func TestPairwiseRowLimit(t *testing.T) {
	opts := Options{K: 2, Lambda: 1, Mu: 1, Fairness: PairwiseFairness}
	err := opts.fill(MaxPairwiseRows+1, 3)
	if err == nil {
		t.Fatal("expected an error above MaxPairwiseRows")
	}
	for _, want := range []string{"SampledFairness", "NeighborFairness"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
	// At the limit, and above it with µ = 0 (no pair list is built), the
	// configuration stays legal.
	opts = Options{K: 2, Lambda: 1, Mu: 1, Fairness: PairwiseFairness}
	if err := opts.fill(MaxPairwiseRows, 3); err != nil {
		t.Fatalf("at the limit: %v", err)
	}
	opts = Options{K: 2, Lambda: 1, Mu: 0, Fairness: PairwiseFairness}
	if err := opts.fill(MaxPairwiseRows+1, 3); err != nil {
		t.Fatalf("µ=0 above the limit: %v", err)
	}
}

// TestFitRejectsPairwiseAboveLimit pins the guard at the Fit boundary,
// without paying for a real fit: the error arrives before training.
func TestFitRejectsPairwiseAboveLimit(t *testing.T) {
	m := MaxPairwiseRows + 1
	x := mat.NewDense(m, 1)
	_, err := Fit(x, Options{K: 1, Lambda: 1, Mu: 1, Fairness: PairwiseFairness})
	if err == nil || !strings.Contains(err.Error(), "NeighborFairness") {
		t.Fatalf("err = %v, want the pairwise row-limit error", err)
	}
}
