package ifair

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/mat"
)

// evalAt builds an objective over m records with the given worker count
// and evaluates it twice at the same deterministic point, returning both
// losses and the second call's gradient. Two consecutive evaluations are
// the historical failure mode: the first call could leave stale partial
// cells behind for the second to sum.
func evalAt(m, workers int, opts Options) (loss1, loss2 float64, grad []float64) {
	const n = 4
	rng := rand.New(rand.NewSource(7))
	x := randomData(rng, m, n)
	if err := opts.fill(m, n); err != nil {
		panic(err)
	}
	opts.Workers = workers
	obj := newObjective(x, opts, rng)
	theta := make([]float64, obj.paramLen())
	trng := rand.New(rand.NewSource(11))
	for i := range theta {
		theta[i] = trng.NormFloat64()
	}
	grad = make([]float64, len(theta))
	loss1 = obj.Eval(theta, grad)
	loss2 = obj.Eval(theta, grad)
	return loss1, loss2, grad
}

// testWorkerSweep returns the non-sequential worker counts the
// bit-identity tests compare against Workers:1. IFAIR_TEST_WORKER_SWEEP=1
// (set by `make test-workers`) widens the sweep to every count in
// [2, 17].
func testWorkerSweep() []int {
	if os.Getenv("IFAIR_TEST_WORKER_SWEEP") != "" {
		w := make([]int, 0, 16)
		for i := 2; i <= 17; i++ {
			w = append(w, i)
		}
		return w
	}
	return []int{2, 3, 5, 8, 16, 17}
}

// TestEvalBitIdenticalAcrossWorkerCounts is the property the unified
// internal/par plan guarantees: for any record count and any worker
// count, loss AND gradient are bit-identical to the sequential
// evaluation — including on a second evaluation, where the old
// chunk-accounting bug surfaced.
func TestEvalBitIdenticalAcrossWorkerCounts(t *testing.T) {
	opts := Options{K: 3, Lambda: 1, Mu: 1} // pairwise fairness: m(m−1)/2 pairs
	sizes := []int{0, 1, 2, 3, 5, 7, 8, 16, 31, 32, 33, 63, 64}
	if os.Getenv("IFAIR_TEST_WORKER_SWEEP") != "" {
		sizes = sizes[:0]
		for m := 0; m <= 64; m++ {
			sizes = append(sizes, m)
		}
	}
	for _, m := range sizes {
		want1, want2, wantGrad := evalAt(m, 1, opts)
		for _, w := range testWorkerSweep() {
			got1, got2, gotGrad := evalAt(m, w, opts)
			if math.Float64bits(got1) != math.Float64bits(want1) {
				t.Fatalf("m=%d workers=%d: first loss %v != sequential %v", m, w, got1, want1)
			}
			if math.Float64bits(got2) != math.Float64bits(want2) {
				t.Fatalf("m=%d workers=%d: second loss %v != sequential %v", m, w, got2, want2)
			}
			for i := range wantGrad {
				if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
					t.Fatalf("m=%d workers=%d: grad[%d] = %v != sequential %v", m, w, i, gotGrad[i], wantGrad[i])
				}
			}
		}
	}
}

// evalBatchAt builds an objective over x with the given worker count and
// evaluates two mini-batches in a row, returning both losses and the
// second gradient. The batches differ in length, so the second evaluation
// runs under different chunk plans than the first and would sum any
// partial cell the first left behind.
func evalBatchAt(x *mat.Dense, workers int, opts Options, first, second []int) (loss1, loss2 float64, grad []float64) {
	m, n := x.Dims()
	if err := opts.fill(m, n); err != nil {
		panic(err)
	}
	opts.Workers = workers
	obj := newObjective(x, opts, rand.New(rand.NewSource(3)))
	theta := make([]float64, obj.paramLen())
	trng := rand.New(rand.NewSource(11))
	for i := range theta {
		theta[i] = trng.NormFloat64()
	}
	grad = make([]float64, len(theta))
	if first != nil {
		loss1 = obj.EvalBatch(first, theta, grad)
	}
	loss2 = obj.EvalBatch(second, theta, grad)
	return loss1, loss2, grad
}

// TestEvalBatchBitIdenticalAcrossWorkerCounts extends the worker-count
// property to the mini-batch path in every fairness mode: for batches
// whose evaluation lists straddle the par.MaxChunks boundary, both
// losses and the gradient match the sequential evaluation bit for bit,
// and the second evaluation matches a fresh objective's (no stale
// partials).
func TestEvalBatchBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const m = 64
	x := randomData(rand.New(rand.NewSource(7)), m, 4)
	// tail(b) is the batch of the last b records. Under pairwise fairness
	// its evaluation list has exactly b rows (every partner is a later
	// record), so the sizes below put lists on 31, 32 and 33 rows.
	tail := func(b int) []int {
		batch := make([]int, b)
		for i := range batch {
			batch[i] = m - b + i
		}
		return batch
	}
	sizes := []int{1, 2, 5, 16, 31, 32, 33, 48, 64}
	if os.Getenv("IFAIR_TEST_WORKER_SWEEP") != "" {
		sizes = sizes[:0]
		for b := 1; b <= m; b++ {
			sizes = append(sizes, b)
		}
	}
	for _, mode := range []FairnessMode{PairwiseFairness, SampledFairness, NeighborFairness} {
		opts := Options{K: 3, Lambda: 1, Mu: 1, Fairness: mode, PairSamples: 2, NeighborK: 6}
		for s, b := range sizes {
			first, second := tail(b), tail(sizes[len(sizes)-1-s])
			want1, want2, wantGrad := evalBatchAt(x, 1, opts, first, second)
			_, fresh, freshGrad := evalBatchAt(x, 1, opts, nil, second)
			if math.Float64bits(fresh) != math.Float64bits(want2) {
				t.Fatalf("%v b=%d: second loss %v != fresh objective's %v", mode, b, want2, fresh)
			}
			for i := range wantGrad {
				if math.Float64bits(freshGrad[i]) != math.Float64bits(wantGrad[i]) {
					t.Fatalf("%v b=%d: second grad[%d] = %v != fresh objective's %v", mode, b, i, wantGrad[i], freshGrad[i])
				}
			}
			for _, w := range testWorkerSweep() {
				got1, got2, gotGrad := evalBatchAt(x, w, opts, first, second)
				if math.Float64bits(got1) != math.Float64bits(want1) || math.Float64bits(got2) != math.Float64bits(want2) {
					t.Fatalf("%v b=%d workers=%d: losses (%v, %v) != sequential (%v, %v)", mode, b, w, got1, got2, want1, want2)
				}
				for i := range wantGrad {
					if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
						t.Fatalf("%v b=%d workers=%d: grad[%d] = %v != sequential %v", mode, b, w, i, gotGrad[i], wantGrad[i])
					}
				}
			}
		}
	}
}

// TestStaleLossPartialsReproducer is the minimal reproducer of the bug
// this package's par migration fixed: a Workers:16 objective over m=100
// records whose forward pass (100 items) and fairness pass (400 pairs)
// share chunked state with different effective totals. Under the old
// accounting the forward pass launched 15 chunks but summed 16 cells, so
// the second evaluation folded a stale fairness partial from the first
// into the utility loss. Both evaluations must reproduce the sequential
// loss exactly.
func TestStaleLossPartialsReproducer(t *testing.T) {
	opts := Options{K: 3, Lambda: 1, Mu: 1, Fairness: SampledFairness, PairSamples: 4}
	want1, want2, _ := evalAt(100, 1, opts)
	got1, got2, _ := evalAt(100, 16, opts)
	if math.Float64bits(got1) != math.Float64bits(want1) {
		t.Fatalf("first eval: workers=16 loss %v != sequential %v", got1, want1)
	}
	if math.Float64bits(got2) != math.Float64bits(want2) {
		t.Fatalf("second eval: workers=16 loss %v != sequential %v (stale partial)", got2, want2)
	}
}

// TestAdversarialShapeWorkers pins the m=7, workers=5 shape where the
// old code's ceil-division launched 4 forward chunks while the chunk
// count said 5: with 21 pairwise-fairness pairs the fairness pass filled
// the fifth cell and the next forward summed it.
func TestAdversarialShapeWorkers(t *testing.T) {
	opts := Options{K: 2, Lambda: 1, Mu: 1} // pairwise: 21 pairs over 7 records
	want1, want2, wantGrad := evalAt(7, 1, opts)
	got1, got2, gotGrad := evalAt(7, 5, opts)
	if math.Float64bits(got1) != math.Float64bits(want1) || math.Float64bits(got2) != math.Float64bits(want2) {
		t.Fatalf("losses (%v, %v) != sequential (%v, %v)", got1, got2, want1, want2)
	}
	for i := range wantGrad {
		if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
			t.Fatalf("grad[%d] = %v != sequential %v", i, gotGrad[i], wantGrad[i])
		}
	}
}

// TestBuildPairsSampledBudget: sampled mode must yield exactly
// PairSamples distinct partners per record — a self-collision is
// resampled, not dropped — so the pair budget is m·samples as the paper
// specifies.
func TestBuildPairsSampledBudget(t *testing.T) {
	for _, m := range []int{2, 3, 10, 57} {
		const samples = 4
		opts := Options{Fairness: SampledFairness, PairSamples: samples}
		rng := rand.New(rand.NewSource(3))
		pairs := buildPairs(mat.NewDense(m, 1), opts, rng)
		if len(pairs) != m*samples {
			t.Fatalf("m=%d: %d pairs, want %d", m, len(pairs), m*samples)
		}
		perRecord := make([]int, m)
		for _, pr := range pairs {
			if pr.i == pr.j {
				t.Fatalf("m=%d: self-pair (%d, %d)", m, pr.i, pr.j)
			}
			perRecord[pr.i]++
		}
		for i, c := range perRecord {
			if c != samples {
				t.Fatalf("m=%d: record %d got %d partners, want %d", m, i, c, samples)
			}
		}
	}
	for _, m := range []int{0, 1} {
		rng := rand.New(rand.NewSource(3))
		if pairs := buildPairs(mat.NewDense(m, 1), Options{Fairness: SampledFairness, PairSamples: 4}, rng); pairs != nil {
			t.Fatalf("m=%d: pairs = %v, want nil (no distinct partner exists)", m, pairs)
		}
	}
}

// TestFitBitIdenticalAcrossWorkers: the end-to-end guarantee — the
// fitted model (prototypes, weights, loss) is bit-identical for every
// objective worker count, under full-batch L-BFGS and mini-batch SGD.
func TestFitBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomData(rng, 40, 4)
	for _, base := range []Options{
		{K: 3, Lambda: 1, Mu: 1, Seed: 9, MaxIterations: 25},
		{K: 3, Lambda: 1, Mu: 1, Seed: 9, Fairness: NeighborFairness, PairSamples: 4, NeighborK: 8,
			BatchSize: 16, Epochs: 5, LearnRate: 0.05},
	} {
		seq, err := Fit(x, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 7, 16} {
			opts := base
			opts.Workers = w
			got, err := Fit(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Loss) != math.Float64bits(seq.Loss) {
				t.Fatalf("batch=%d workers=%d: loss %v != sequential %v", base.BatchSize, w, got.Loss, seq.Loss)
			}
			if !mat.Equalish(got.Prototypes, seq.Prototypes, 0) {
				t.Fatalf("batch=%d workers=%d: prototypes differ from sequential fit", base.BatchSize, w)
			}
			for i := range seq.Alpha {
				if math.Float64bits(got.Alpha[i]) != math.Float64bits(seq.Alpha[i]) {
					t.Fatalf("batch=%d workers=%d: alpha[%d] = %v != %v", base.BatchSize, w, i, got.Alpha[i], seq.Alpha[i])
				}
			}
		}
	}
}

// TestFitParallelConverges: training with objective workers still
// converges to a finite, improving loss (port of the pre-par smoke
// test).
func TestFitParallelConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randomData(rng, 30, 3)
	model, err := Fit(x, Options{K: 2, Lambda: 1, Mu: 0.5, Seed: 4, MaxIterations: 40, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(model.Loss) || math.IsInf(model.Loss, 0) {
		t.Fatalf("non-finite loss %v", model.Loss)
	}
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTransformParallelBitIdentical: batch transforms chunk rows but a
// row's value never depends on the chunking, for any worker count.
func TestTransformParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randomData(rng, 33, 4)
	model, err := Fit(x, Options{K: 3, Lambda: 1, Mu: 0.5, Seed: 2, MaxIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	want := mustTransform(t, model, x)
	for _, w := range testWorkerSweep() {
		got := mat.NewDense(x.Rows(), x.Cols())
		if err := model.TransformInto(got, x, w); err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("workers=%d: element %d = %v != %v", w, i, got.Data()[i], v)
			}
		}
	}
}
