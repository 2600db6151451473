package optimize

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// quadBatch is a decomposable least-squares problem: items are targets
// t_i, the objective is Σ_i ‖x − t_i‖², minimised at the mean target.
type quadBatch struct {
	targets [][]float64
}

func (q *quadBatch) Blocks() (order, off []int) { return singletonBlocks(len(q.targets)) }

// singletonBlocks is the identity order of items items, one block each.
func singletonBlocks(items int) (order, off []int) {
	order, off = make([]int, items), make([]int, items+1)
	for i := range order {
		order[i], off[i+1] = i, i+1
	}
	return order, off
}

func (q *quadBatch) EvalBatch(batch []int, x, grad []float64) float64 {
	for i := range grad {
		grad[i] = 0
	}
	var loss float64
	for _, it := range batch {
		t := q.targets[it]
		for j := range x {
			d := x[j] - t[j]
			loss += d * d
			grad[j] += 2 * d
		}
	}
	return loss
}

func newQuadBatch(items, dim int) *quadBatch {
	q := &quadBatch{targets: make([][]float64, items)}
	for i := range q.targets {
		t := make([]float64, dim)
		for j := range t {
			t[j] = float64((i+j)%5) - 2
		}
		q.targets[i] = t
	}
	return q
}

func (q *quadBatch) mean() []float64 {
	dim := len(q.targets[0])
	m := make([]float64, dim)
	for _, t := range q.targets {
		for j, v := range t {
			m[j] += v
		}
	}
	for j := range m {
		m[j] /= float64(len(q.targets))
	}
	return m
}

func TestSGDConvergesToMean(t *testing.T) {
	q := newQuadBatch(200, 3)
	res, err := SGD(q, []float64{9, -7, 4}, SGDSettings{
		Settings:  Settings{MaxIterations: 200},
		BatchSize: 16,
		LearnRate: 0.005,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := q.mean()
	for j := range want {
		if math.Abs(res.X[j]-want[j]) > 0.05 {
			t.Fatalf("x[%d] = %v, want ≈ %v (status %s)", j, res.X[j], want[j], res.Status)
		}
	}
}

func TestSGDDeterministicInSeed(t *testing.T) {
	q := newQuadBatch(100, 2)
	run := func() []float64 {
		res, err := SGD(q, []float64{3, 3}, SGDSettings{
			Settings:  Settings{MaxIterations: 7},
			BatchSize: 9,
			LearnRate: 0.1,
			Seed:      42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.X
	}
	a, b := run(), run()
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("runs differ at %d: %v vs %v", j, a[j], b[j])
		}
	}
	res, err := SGD(q, []float64{3, 3}, SGDSettings{
		Settings:  Settings{MaxIterations: 7},
		BatchSize: 9,
		LearnRate: 0.1,
		Seed:      43,
	})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range a {
		if a[j] != res.X[j] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestSGDEpochEvents(t *testing.T) {
	q := newQuadBatch(50, 2)
	var iters []Iteration
	res, err := SGD(q, []float64{1, 1}, SGDSettings{
		Settings: Settings{
			MaxIterations: 5,
			Callback: func(it Iteration) bool {
				iters = append(iters, it)
				return false
			},
		},
		BatchSize: 10,
		LearnRate: 0.05,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 || len(iters) != res.Iterations {
		t.Fatalf("callbacks %d, epochs %d", len(iters), res.Iterations)
	}
	for e, it := range iters {
		if it.Iter != e {
			t.Fatalf("epoch %d reported as %d", e, it.Iter)
		}
		if math.IsNaN(it.F) || it.Step <= 0 {
			t.Fatalf("bad iteration event %+v", it)
		}
	}
}

func TestSGDCallbackStops(t *testing.T) {
	q := newQuadBatch(50, 2)
	res, err := SGD(q, []float64{1, 1}, SGDSettings{
		Settings: Settings{
			MaxIterations: 100,
			Callback:      func(it Iteration) bool { return it.Iter >= 2 },
		},
		BatchSize: 10,
		LearnRate: 0.05,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Stopped || res.Iterations != 3 {
		t.Fatalf("status %s after %d epochs, want stopped after 3", res.Status, res.Iterations)
	}
}

// poisonBatch turns non-finite after a fixed number of evaluations,
// exercising the divergence hardening.
type poisonBatch struct {
	quad   *quadBatch
	evals  int
	poison int
}

func (p *poisonBatch) Blocks() (order, off []int) { return p.quad.Blocks() }

func (p *poisonBatch) EvalBatch(batch []int, x, grad []float64) float64 {
	p.evals++
	if p.evals > p.poison {
		for i := range grad {
			grad[i] = math.NaN()
		}
		return math.NaN()
	}
	return p.quad.EvalBatch(batch, x, grad)
}

func TestSGDDivergenceKeepsLastFiniteIterate(t *testing.T) {
	p := &poisonBatch{quad: newQuadBatch(60, 2), poison: 8}
	res, err := SGD(p, []float64{5, 5}, SGDSettings{
		Settings:  Settings{MaxIterations: 100},
		BatchSize: 10,
		LearnRate: 0.05,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Diverged {
		t.Fatalf("status = %s, want diverged", res.Status)
	}
	for j, v := range res.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("x[%d] = %v: poisoned parameters returned", j, v)
		}
	}
}

func TestSGDNonFiniteInitialPoint(t *testing.T) {
	p := &poisonBatch{quad: newQuadBatch(10, 2), poison: 0}
	_, err := SGD(p, []float64{1, 1}, SGDSettings{Settings: Settings{MaxIterations: 5}})
	if err == nil {
		t.Fatal("expected an error for a non-finite initial objective")
	}
}

func TestSGDEmptyProblem(t *testing.T) {
	q := newQuadBatch(10, 2)
	if _, err := SGD(q, nil, SGDSettings{}); err != ErrEmptyProblem {
		t.Fatalf("err = %v, want ErrEmptyProblem", err)
	}
}

func TestSGDBatchLargerThanItems(t *testing.T) {
	q := newQuadBatch(5, 2)
	res, err := SGD(q, []float64{4, 4}, SGDSettings{
		Settings:  Settings{MaxIterations: 300},
		BatchSize: 64,
		LearnRate: 0.2,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := q.mean()
	for j := range want {
		if math.Abs(res.X[j]-want[j]) > 1e-3 {
			t.Fatalf("x = %v, want ≈ %v", res.X, want)
		}
	}
}

// recordBatch records every batch SGD evaluates, copied, over the given
// blocks. Its gradient is zero, so the trajectory never matters, and its
// value counts the evaluations, so no two epochs' losses tie and SGD
// never stops early.
type recordBatch struct {
	order, off []int
	batches    [][]int
}

func (r *recordBatch) Blocks() (order, off []int) { return r.order, r.off }

func (r *recordBatch) EvalBatch(batch []int, x, grad []float64) float64 {
	r.batches = append(r.batches, slices.Clone(batch))
	clear(grad)
	return float64(len(r.batches))
}

// epochBatches runs SGD for epochs epochs over r and returns each
// epoch's batches (the initial evaluation dropped).
func epochBatches(t *testing.T, r *recordBatch, batch, epochs int, seed int64) [][][]int {
	t.Helper()
	_, err := SGD(r, []float64{0}, SGDSettings{
		Settings:  Settings{MaxIterations: epochs},
		BatchSize: batch,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := (len(r.order) + batch - 1) / batch
	if got, want := len(r.batches), 1+epochs*perEpoch; got != want {
		t.Fatalf("%d evaluations, want %d", got, want)
	}
	out := make([][][]int, epochs)
	for e := range out {
		out[e] = r.batches[1+e*perEpoch : 1+(e+1)*perEpoch]
	}
	return out
}

// TestSGDEpochVisitsEveryItemOnce: for arbitrary blocks — ragged sizes,
// a scrambled order — every epoch's batches are a partition of the
// items, each block stays contiguous within the epoch's sequence, and the
// block sequence changes between epochs.
func TestSGDEpochVisitsEveryItemOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, items := range []int{1, 2, 17, 100} {
		ident, _ := singletonBlocks(items)
		r := &recordBatch{order: rng.Perm(items), off: []int{0}}
		for lo := 0; lo < items; {
			lo = min(items, lo+1+rng.Intn(9))
			r.off = append(r.off, lo)
		}
		blockOf := make([]int, items)
		for b := 0; b+1 < len(r.off); b++ {
			for _, it := range r.order[r.off[b]:r.off[b+1]] {
				blockOf[it] = b
			}
		}
		var prev []int
		for e, batches := range epochBatches(t, r, 7, 4, 9) {
			seq := slices.Concat(batches...)
			got := slices.Clone(seq)
			slices.Sort(got)
			if !slices.Equal(got, ident) {
				t.Fatalf("items=%d epoch %d: batches cover %v, want every item once", items, e, got)
			}
			// Each block's items appear together and in block order.
			for i := 0; i < len(seq); {
				b := blockOf[seq[i]]
				blk := r.order[r.off[b]:r.off[b+1]]
				if !slices.Equal(seq[i:i+len(blk)], blk) {
					t.Fatalf("items=%d epoch %d: block %d split at %d", items, e, b, i)
				}
				i += len(blk)
			}
			if items == 100 && slices.Equal(seq, prev) {
				t.Fatalf("items=%d: epoch %d repeats the previous block sequence", items, e)
			}
			prev = seq
		}
	}
}

// TestSGDSingletonBlocksAreTheItemShuffle pins the shuffle stream:
// singleton blocks in identity order cut exactly the batches of the
// persistent in-place item shuffle (Fisher–Yates over the (Seed, epoch)
// stream) that SGD drew before it shuffled blocks, so µ = 0 fits and
// checkpoints of that regime are unchanged.
func TestSGDSingletonBlocksAreTheItemShuffle(t *testing.T) {
	const items, batch, epochs, seed = 50, 8, 3, 77
	r := &recordBatch{}
	r.order, r.off = singletonBlocks(items)
	got := epochBatches(t, r, batch, epochs, seed)
	if !slices.Equal(r.batches[0], r.order[:batch]) {
		t.Fatalf("initial batch %v, want the first %d items", r.batches[0], batch)
	}
	perm, _ := singletonBlocks(items)
	for e := 0; e < epochs; e++ {
		rng := rand.New(rand.NewSource(RestartSeed(seed, e+1)))
		for i := items - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for k, lo := 0, 0; lo < items; k, lo = k+1, lo+batch {
			want := perm[lo:min(lo+batch, items)]
			if !slices.Equal(got[e][k], want) {
				t.Fatalf("epoch %d batch %d = %v, want %v", e, k, got[e][k], want)
			}
		}
	}
}
