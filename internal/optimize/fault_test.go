// Fault-injection tests for the optimizer substrate. These live in an
// external test package because internal/faultinject imports
// internal/optimize (for RestartSeed and the Trace interface).
package optimize_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/optimize"
)

// sphere is a well-behaved convex objective: f(x) = Σ x_i², ∇f = 2x.
var sphere = optimize.ObjectiveFunc(func(x, grad []float64) float64 {
	var f float64
	for i, v := range x {
		f += v * v
		grad[i] = 2 * v
	}
	return f
})

// sphereGradNorm is ‖∇f(x)‖∞ of the sphere, evaluated cleanly.
func sphereGradNorm(x []float64) float64 {
	grad := make([]float64, len(x))
	sphere.Eval(x, grad)
	var norm float64
	for _, g := range grad {
		norm = math.Max(norm, math.Abs(g))
	}
	return norm
}

// counting wraps obj so *evals counts its evaluations.
func counting(obj optimize.Objective, evals *int) optimize.Objective {
	return optimize.ObjectiveFunc(func(x, grad []float64) float64 {
		*evals++
		return obj.Eval(x, grad)
	})
}

func assertFinite(t *testing.T, x []float64) {
	t.Helper()
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("returned X[%d] = %v is not finite", i, v)
		}
	}
}

// nanGradient wraps obj so every evaluation on which fuse fires keeps its
// finite value but returns a NaN gradient — the subtle poisoning that, if
// accepted, would corrupt every later iterate.
func nanGradient(obj optimize.Objective, fuse *faultinject.Fuse) optimize.Objective {
	return optimize.ObjectiveFunc(func(x, grad []float64) float64 {
		f := obj.Eval(x, grad)
		if fuse.Trip() {
			for i := range grad {
				grad[i] = math.NaN()
			}
		}
		return f
	})
}

func TestLBFGSDivergedOnStickyNaN(t *testing.T) {
	// From the 3rd evaluation on, every evaluation explodes — the iterates
	// can never get back to finite territory, so the run must stop with
	// Diverged and hand back the last finite point.
	obj := faultinject.PoisonObjective(sphere, faultinject.NewStickyFuse(3), faultinject.NaN())
	res, err := optimize.LBFGS(obj, []float64{3, -2}, optimize.Settings{MaxIterations: 50})
	if err != nil {
		t.Fatalf("LBFGS: %v", err)
	}
	if res.Status != optimize.Diverged {
		t.Fatalf("Status = %v, want Diverged", res.Status)
	}
	assertFinite(t, res.X)
	if math.IsNaN(res.F) || math.IsInf(res.F, 0) {
		t.Fatalf("returned F = %v is not finite", res.F)
	}
}

func TestLBFGSDivergedOnStickyInf(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		obj := faultinject.PoisonObjective(sphere, faultinject.NewStickyFuse(2), inf)
		res, err := optimize.LBFGS(obj, []float64{1.5}, optimize.Settings{MaxIterations: 50})
		if err != nil {
			t.Fatalf("LBFGS(inf=%v): %v", inf, err)
		}
		// −Inf is the treacherous case: it passes any naive decrease test.
		if res.Status != optimize.Diverged {
			t.Fatalf("inf=%v: Status = %v, want Diverged", inf, res.Status)
		}
		assertFinite(t, res.X)
		if math.IsInf(res.F, 0) {
			t.Fatalf("inf=%v: returned F = %v is not finite", inf, res.F)
		}
	}
}

func TestLBFGSNonFiniteInitialPoint(t *testing.T) {
	// A well-behaved objective whose first evaluation is poisoned: there is
	// no finite point to fall back on, so the run is an error with Diverged.
	obj := faultinject.PoisonObjective(sphere, faultinject.NewFuse(1), faultinject.NaN())
	res, err := optimize.LBFGS(obj, []float64{1, 2}, optimize.Settings{MaxIterations: 10})
	if err == nil {
		t.Fatal("want error for non-finite initial objective")
	}
	if res.Status != optimize.Diverged {
		t.Fatalf("Status = %v, want Diverged", res.Status)
	}
}

func TestLBFGSRecoversFromTransientFault(t *testing.T) {
	// A single poisoned evaluation — a one-shot fuse — must not kill the
	// run: the line search backs off, re-evaluates cleanly and converges.
	obj := faultinject.PoisonObjective(sphere, faultinject.NewFuse(2), faultinject.NaN())
	res, err := optimize.LBFGS(obj, []float64{3, -2}, optimize.Settings{MaxIterations: 200})
	if err != nil {
		t.Fatalf("LBFGS: %v", err)
	}
	if res.Status != optimize.Converged && res.Status != optimize.SmallImprovement {
		t.Fatalf("Status = %v, want convergence despite the transient fault", res.Status)
	}
	assertFinite(t, res.X)
}

func TestLBFGSPoisonedGradientKeepsLastFinitePoint(t *testing.T) {
	// The function value stays finite and acceptable while the gradient is
	// NaN. Eval 1 is the initial point; from eval 2 on — every line-search
	// trial — the gradient is poisoned, so no step may be accepted and the
	// run must stop at the initial point.
	x0 := []float64{2, 1}
	res, err := optimize.LBFGS(nanGradient(sphere, faultinject.NewStickyFuse(2)), x0, optimize.Settings{MaxIterations: 50})
	if err != nil {
		t.Fatalf("LBFGS: %v", err)
	}
	if res.Status != optimize.Diverged {
		t.Fatalf("Status = %v, want Diverged", res.Status)
	}
	assertFinite(t, res.X)
	if gn := sphereGradNorm(res.X); res.X[0] != x0[0] || res.X[1] != x0[1] || gn != 4 {
		t.Fatalf("X = %v, gradient norm %v; want the initial point %v and its gradient norm 4", res.X, gn, x0)
	}
}

// FuzzLBFGSNonFinite runs L-BFGS on the sphere with a poisoned evaluation
// — one-shot, or sticky from the fuse on — that returns NaN, +Inf or −Inf
// (value and gradient) or a finite value with a NaN gradient. Whatever the
// schedule and start, the result is finite unless the start itself was
// poisoned (an error, with Status Diverged), and a sticky poison that
// fires always ends the run with Status Diverged.
func FuzzLBFGSNonFinite(f *testing.F) {
	f.Add(uint8(3), true, uint8(0), 3.0, -2.0)
	f.Add(uint8(2), true, uint8(1), 1.5, 0.0)
	f.Add(uint8(2), true, uint8(2), 1.5, 0.0)
	f.Add(uint8(2), true, uint8(3), 2.0, 1.0)
	f.Add(uint8(2), false, uint8(0), 3.0, -2.0)
	f.Add(uint8(1), false, uint8(2), 1.0, 2.0)
	f.Fuzz(func(t *testing.T, at uint8, sticky bool, poison uint8, x0, x1 float64) {
		start := []float64{x0, x1}
		for _, v := range start {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("start point must be finite")
			}
		}
		// Sphere runs take a handful of evaluations; fuses beyond 16
		// would rarely fire. A fuse at 0 never fires.
		fuse := faultinject.NewFuse(int(at % 16))
		if sticky {
			fuse = faultinject.NewStickyFuse(int(at % 16))
		}
		var obj optimize.Objective
		switch poison % 4 {
		case 0:
			obj = faultinject.PoisonObjective(sphere, fuse, math.NaN())
		case 1:
			obj = faultinject.PoisonObjective(sphere, fuse, math.Inf(1))
		case 2:
			obj = faultinject.PoisonObjective(sphere, fuse, math.Inf(-1))
		default:
			obj = nanGradient(sphere, fuse)
		}
		evals := 0
		res, err := optimize.LBFGS(counting(obj, &evals), start, optimize.Settings{MaxIterations: 50})
		if err != nil {
			if evals != 1 || res.Status != optimize.Diverged {
				t.Fatalf("error %v after %d evals with Status %v; only a poisoned start may fail, as Diverged", err, evals, res.Status)
			}
			return
		}
		assertFinite(t, res.X)
		if gn := sphereGradNorm(res.X); math.IsNaN(res.F) || math.IsInf(res.F, 0) || math.IsNaN(gn) || math.IsInf(gn, 0) {
			t.Fatalf("F = %v, gradient norm %v: not finite", res.F, gn)
		}
		if sticky && at%16 > 0 && evals >= int(at%16) && res.Status != optimize.Diverged {
			t.Fatalf("sticky poison fired at eval %d of %d, Status = %v, want Diverged", at%16, evals, res.Status)
		}
	})
}

// fakeLedger records every Lookup/Record for assertion.
type fakeLedger struct {
	mu       sync.Mutex
	done     map[int]float64
	failed   map[int]error
	recorded map[int]float64
	recErrs  map[int]error
}

func newFakeLedger() *fakeLedger {
	return &fakeLedger{
		done: map[int]float64{}, failed: map[int]error{},
		recorded: map[int]float64{}, recErrs: map[int]error{},
	}
}

func (l *fakeLedger) Lookup(r int) (float64, error, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err, ok := l.failed[r]; ok {
		return math.NaN(), err, true
	}
	if loss, ok := l.done[r]; ok {
		return loss, nil, true
	}
	return 0, nil, false
}

func (l *fakeLedger) Record(r int, loss float64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recorded[r] = loss
	l.recErrs[r] = err
}

func TestRestartsLedgerSkipsRecordedAndRecordsFresh(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ledger := newFakeLedger()
		ledger.done[0] = 5.0
		ledger.done[2] = 1.0 // the recorded winner
		ledger.failed[3] = errors.New("recorded failure")

		var mu sync.Mutex
		ran := map[int]bool{}
		best, err := optimize.Restarts(context.Background(), 5, workers, ledger,
			func(_ context.Context, r int) (float64, error) {
				mu.Lock()
				ran[r] = true
				mu.Unlock()
				return 10 + float64(r), nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if best != 2 {
			t.Fatalf("workers=%d: best = %d, want recorded restart 2", workers, best)
		}
		for _, r := range []int{0, 2, 3} {
			if ran[r] {
				t.Fatalf("workers=%d: recorded restart %d re-ran", workers, r)
			}
		}
		for _, r := range []int{1, 4} {
			if !ran[r] {
				t.Fatalf("workers=%d: fresh restart %d did not run", workers, r)
			}
			if got, ok := ledger.recorded[r]; !ok || got != 10+float64(r) {
				t.Fatalf("workers=%d: restart %d recorded %v (ok=%v)", workers, r, got, ok)
			}
		}
		for _, r := range []int{0, 2, 3} {
			if _, ok := ledger.recorded[r]; ok {
				t.Fatalf("workers=%d: skipped restart %d was re-recorded", workers, r)
			}
		}
	}
}

func TestRestartsLedgerRecordsFreshFailure(t *testing.T) {
	ledger := newFakeLedger()
	boom := errors.New("boom")
	best, err := optimize.Restarts(context.Background(), 2, 1, ledger,
		func(_ context.Context, r int) (float64, error) {
			if r == 0 {
				return math.NaN(), boom
			}
			return 1, nil
		})
	if err != nil || best != 1 {
		t.Fatalf("best=%d err=%v", best, err)
	}
	if !errors.Is(ledger.recErrs[0], boom) {
		t.Fatalf("failure of restart 0 not recorded: %v", ledger.recErrs[0])
	}
}

func TestRestartsLedgerDoesNotRecordCancelled(t *testing.T) {
	ledger := newFakeLedger()
	ctx, cancel := context.WithCancel(context.Background())
	_, err := optimize.Restarts(ctx, 3, 1, ledger,
		func(ctx context.Context, r int) (float64, error) {
			if r == 1 {
				cancel() // dies mid-restart
				return math.NaN(), ctx.Err()
			}
			return float64(r), nil
		})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if _, ok := ledger.recorded[1]; ok {
		t.Fatal("cancelled restart 1 was recorded — it must re-run on resume")
	}
	if _, ok := ledger.recErrs[1]; ok {
		t.Fatal("cancelled restart 1 recorded an error")
	}
	// Restart 0 finished before the cancel and must be recorded.
	if got, ok := ledger.recorded[0]; !ok || got != 0 {
		t.Fatalf("pre-cancel restart 0 recorded %v (ok=%v)", got, ok)
	}
}

func TestKillerCancelsAtExactPoint(t *testing.T) {
	// Rosenbrock's curved valley takes L-BFGS dozens of iterations, so
	// iteration 5 is guaranteed to be reached.
	rosenbrock := optimize.ObjectiveFunc(func(x, grad []float64) float64 {
		a, b := x[1]-x[0]*x[0], 1-x[0]
		grad[0], grad[1] = -400*x[0]*a-2*b, 200*a
		return 100*a*a + b*b
	})
	killer, ctx := faultinject.NewKiller(context.Background(), 0, 5)
	settings := optimize.Settings{
		MaxIterations: 500,
		GradTol:       1e-12,
		Callback:      optimize.ContextCallback(ctx, killer, 0),
	}
	res, err := optimize.LBFGS(rosenbrock, []float64{-1.2, 1}, settings)
	if err != nil {
		t.Fatalf("LBFGS: %v", err)
	}
	if !killer.Fired() {
		t.Fatal("killer never fired")
	}
	if res.Status != optimize.Stopped {
		t.Fatalf("Status = %v, want Stopped", res.Status)
	}
	// Callback-driven stop lands within one iteration of the kill point.
	if res.Iterations != 6 {
		t.Fatalf("stopped after %d iterations, want 6 (kill at iter 5)", res.Iterations)
	}
	if !errors.Is(context.Cause(ctx), faultinject.ErrInjected) {
		t.Fatalf("cause = %v, want ErrInjected", context.Cause(ctx))
	}
}
