package ifair

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/optimize"
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
				Fairness: mode, PairSamples: 4, NeighborK: 8, BatchSize: 8,
			}
			if err := opts.fill(m, n); err != nil {
				t.Fatal(err)
			}
			obj := newObjective(x, opts, rng)
			theta := initialTheta(x, opts, rng)

			fullGrad := make([]float64, obj.paramLen())
			fullLoss := obj.Eval(theta, fullGrad)

			// Batches are cut from the records in index order and from
			// the block order in reverse block sequence, as SGD cuts them
			// from an epoch's shuffled blocks.
			order, off := obj.Blocks()
			var blockSeq []int
			for b := len(off) - 2; b >= 0; b-- {
				blockSeq = append(blockSeq, order[off[b]:off[b+1]]...)
			}
			seqs := map[string][]int{"index": make([]int, m), "blocks": blockSeq}
			for i := range seqs["index"] {
				seqs["index"][i] = i
			}
			for _, batchSize := range []int{1, 7, 16, 40} {
				for name, seq := range seqs {
					sumGrad := make([]float64, obj.paramLen())
					grad := make([]float64, obj.paramLen())
					var sumLoss float64
					for lo := 0; lo < m; lo += batchSize {
						sumLoss += obj.EvalBatch(seq[lo:min(lo+batchSize, m)], theta, grad)
						for i := range grad {
							sumGrad[i] += grad[i]
						}
					}
					if batchSize == m && name == "index" {
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
						t.Fatalf("%s batch=%d: summed loss %v != full loss %v", name, batchSize, sumLoss, fullLoss)
					}
					for i := range fullGrad {
						if math.Abs(sumGrad[i]-fullGrad[i]) > 1e-9*(1+math.Abs(fullGrad[i])) {
							t.Fatalf("%s batch=%d: grad[%d] = %v, full %v", name, batchSize, i, sumGrad[i], fullGrad[i])
						}
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

// pairComponents labels each record with its connected component in
// the fairness-pair graph (union–find over the pair list).
func pairComponents(m int, pairs []pair) []int {
	parent := make([]int, m)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for _, pr := range pairs {
		parent[find(pr.i)] = find(pr.j)
	}
	comp := make([]int, m)
	for i := range comp {
		comp[i] = find(i)
	}
	return comp
}

// checkBlocks asserts the block-order contract on obj: the order is a
// permutation of the records, every block holds 1..blockRows records of
// one pair-graph component, each component is one run of blocks, and
// only a component's last block is short. It returns the number of
// components.
func checkBlocks(t *testing.T, obj *objective) int {
	t.Helper()
	order, off := obj.Blocks()
	if len(order) != obj.m || off[0] != 0 || off[len(off)-1] != obj.m {
		t.Fatalf("order of %d records with offsets %v..%v, want %d records", len(order), off[0], off[len(off)-1], obj.m)
	}
	seen := make([]bool, obj.m)
	for _, r := range order {
		if seen[r] {
			t.Fatalf("record %d appears twice in the order", r)
		}
		seen[r] = true
	}
	comp := pairComponents(obj.m, obj.full.pairs)
	done := map[int]bool{}
	for b := 0; b+1 < len(off); b++ {
		blk := order[off[b]:off[b+1]]
		if len(blk) == 0 || len(blk) > blockRows {
			t.Fatalf("block %d holds %d records, want 1..%d", b, len(blk), blockRows)
		}
		c := comp[blk[0]]
		for _, r := range blk {
			if comp[r] != c {
				t.Fatalf("block %d spans components %d and %d", b, c, comp[r])
			}
		}
		if done[c] && (b == 0 || comp[order[off[b]-1]] != c) {
			t.Fatalf("component %d is split across non-adjacent blocks", c)
		}
		done[c] = true
		if b+2 < len(off) && comp[order[off[b+1]]] == c && len(blk) != blockRows {
			t.Fatalf("block %d holds %d records but its component continues", b, len(blk))
		}
	}
	return len(done)
}

// TestBlocksFollowPairGraph pins the block order SGD shuffles in every
// fairness mode and on the edge cases: no pairs (µ = 0 gives singleton
// blocks in record order, so SGD's block shuffle is the record shuffle),
// fewer records than a block, and a pair graph split into components.
// The order is a pure function of the problem: identical for every
// Workers value and shared by clones.
func TestBlocksFollowPairGraph(t *testing.T) {
	twoClusters := randomData(rand.New(rand.NewSource(3)), 60, 2)
	for i := 30; i < 60; i++ {
		twoClusters.Row(i)[0] += 1000
	}
	cases := []struct {
		name  string
		x     *mat.Dense
		opts  Options
		comps int // expected component count; 0 = only ≥ 1
	}{
		{"pairwise", randomData(rand.New(rand.NewSource(1)), 40, 3),
			Options{K: 2, Lambda: 1, Mu: 1, Fairness: PairwiseFairness}, 1},
		{"sampled", randomData(rand.New(rand.NewSource(1)), 300, 3),
			Options{K: 2, Lambda: 1, Mu: 1, Fairness: SampledFairness, PairSamples: 2}, 0},
		{"neighbor", randomData(rand.New(rand.NewSource(1)), 300, 3),
			Options{K: 2, Lambda: 1, Mu: 1, Fairness: NeighborFairness, PairSamples: 3, NeighborK: 6}, 0},
		{"mu=0", randomData(rand.New(rand.NewSource(1)), 100, 3),
			Options{K: 2, Lambda: 1, Mu: 0, Fairness: NeighborFairness, PairSamples: 3, NeighborK: 6}, 100},
		{"m<block", randomData(rand.New(rand.NewSource(1)), 10, 3),
			Options{K: 2, Lambda: 1, Mu: 1, Fairness: NeighborFairness, PairSamples: 3, NeighborK: 6}, 0},
		{"two-clusters", twoClusters,
			Options{K: 2, Lambda: 1, Mu: 1, Fairness: NeighborFairness, PairSamples: 3, NeighborK: 5}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, n := tc.x.Dims()
			build := func(workers int) *objective {
				opts := tc.opts
				opts.Workers, opts.BatchSize = workers, 16
				if err := opts.fill(m, n); err != nil {
					t.Fatal(err)
				}
				return newObjective(tc.x, opts, rand.New(rand.NewSource(7)))
			}
			obj := build(1)
			comps := checkBlocks(t, obj)
			if tc.comps > 0 && comps != tc.comps {
				t.Fatalf("%d components, want %d", comps, tc.comps)
			}
			order, off := obj.Blocks()
			if tc.opts.Mu == 0 {
				for i, r := range order {
					if r != i || off[i+1] != i+1 {
						t.Fatalf("µ = 0: block order %v / %v, want singleton records in index order", order, off)
					}
				}
			}
			if tc.name == "two-clusters" && comps < 2 {
				t.Fatal("the two far-apart clusters share a component")
			}
			for _, w := range []int{2, 5} {
				o2, f2 := build(w).Blocks()
				if !slices.Equal(o2, order) || !slices.Equal(f2, off) {
					t.Fatalf("Workers=%d changed the block order", w)
				}
			}
			o3, f3 := obj.clone().Blocks()
			if &o3[0] != &order[0] || &f3[0] != &off[0] {
				t.Fatal("a clone rebuilt the block order instead of sharing it")
			}
		})
	}
}

// TestSGDBatchesAreGraphLocal is the locality regression: on the 2-D
// mixture the perfbench train workload fits (m = 10k, 8 of 16 neighbour
// pairs per record, 1024-record batches), one epoch of the batches SGD
// cuts from the shuffled graph blocks evaluates at most 4 list rows per
// batch record (3.72 with 16-record blocks). Batches cut from a shuffled
// record permutation evaluate 5.98: most partners of a record's pairs
// sit in other batches.
func TestSGDBatchesAreGraphLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-record neighbour graph")
	}
	ds := dataset.SyntheticMixture(dataset.VariantRandom, 10_000, 1)
	m, n := ds.X.Dims()
	opts := Options{
		K: 8, Lambda: 1, Mu: 1, Protected: ds.ProtectedCols,
		Init: InitMaskedProtected, Fairness: NeighborFairness,
		PairSamples: 8, NeighborK: 16,
		BatchSize: 1024, Epochs: 1, LearnRate: 0.01, Seed: 1,
	}
	if err := opts.fill(m, n); err != nil {
		t.Fatal(err)
	}
	cnt := &listCounter{obj: newObjective(ds.X, opts, rand.New(rand.NewSource(opts.Seed)))}
	_, err := optimize.SGD(cnt, make([]float64, cnt.obj.paramLen()), optimize.SGDSettings{
		Settings:  optimize.Settings{MaxIterations: 1},
		BatchSize: opts.BatchSize,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.batchRows != m {
		t.Fatalf("one epoch's batches hold %d records, want %d", cnt.batchRows, m)
	}
	ratio := float64(cnt.listRows) / float64(cnt.batchRows)
	t.Logf("%.3f evaluated rows per batch record", ratio)
	if ratio > 4 {
		t.Fatalf("an epoch evaluates %.2f rows per batch record, want ≤ 4", ratio)
	}
}

// listCounter is a BatchObjective over an objective's blocks that counts
// the records its batches own and the rows their evaluation lists hold,
// without evaluating anything.
type listCounter struct {
	obj                 *objective
	batchRows, listRows int
	evals               int
}

func (c *listCounter) Blocks() (order, off []int) { return c.obj.Blocks() }

func (c *listCounter) EvalBatch(batch []int, _, grad []float64) float64 {
	c.evals++
	if c.evals > 1 { // skip SGD's initial evaluation
		c.batchRows += len(batch)
		c.listRows += len(c.obj.batchList(batch).rows)
	}
	clear(grad)
	return float64(c.evals)
}
