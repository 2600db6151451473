package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// bowl is a well-conditioned bowl with a minimum at (1, 2, 3, ...).
func bowl(x, grad []float64) float64 {
	var f float64
	for i := range x {
		d := x[i] - float64(i+1)
		f += d * d
		grad[i] = 2 * d
	}
	return f
}

func TestCallbackOrderingAndMonotonicity(t *testing.T) {
	t.Run("lbfgs", func(t *testing.T) {
		var events []Iteration
		s := Settings{
			MaxIterations: 50,
			Callback: func(it Iteration) bool {
				events = append(events, it)
				return false
			},
		}
		res, err := LBFGS(ObjectiveFunc(bowl), []float64{10, -4, 7}, s)
		if err != nil {
			t.Fatalf("optimizer error: %v", err)
		}
		if len(events) == 0 {
			t.Fatal("callback never invoked")
		}
		for i, it := range events {
			if it.Iter != i {
				t.Fatalf("event %d has Iter=%d, want %d (callbacks must fire once per iteration, in order)", i, it.Iter, i)
			}
			if it.Step <= 0 {
				t.Errorf("event %d has non-positive step %v", i, it.Step)
			}
			if i > 0 {
				if it.F > events[i-1].F {
					t.Errorf("event %d loss %v rose above previous %v", i, it.F, events[i-1].F)
				}
				if it.Evals <= events[i-1].Evals {
					t.Errorf("event %d Evals=%d did not increase from %d", i, it.Evals, events[i-1].Evals)
				}
			}
		}
		last := events[len(events)-1]
		if last.F != res.F {
			t.Errorf("last callback F=%v, result F=%v: final event must describe the returned point", last.F, res.F)
		}
		if last.Iter+1 != res.Iterations {
			t.Errorf("last callback Iter=%d, result Iterations=%d", last.Iter, res.Iterations)
		}
	})
}

// quartic needs many L-BFGS iterations, so a stop request mid-run is
// observable.
func quartic(x, grad []float64) float64 {
	var f float64
	for i := range x {
		d := x[i] - float64(i+1)
		f += d * d * d * d
		grad[i] = 4 * d * d * d
	}
	return f
}

func TestCallbackStopsRun(t *testing.T) {
	t.Run("lbfgs", func(t *testing.T) {
		calls := 0
		s := Settings{
			MaxIterations: 500,
			GradTol:       1e-14,
			Callback: func(Iteration) bool {
				calls++
				return calls >= 2
			},
		}
		res, err := LBFGS(ObjectiveFunc(quartic), []float64{100, -40, 70, 5}, s)
		if err != nil {
			t.Fatalf("optimizer error: %v", err)
		}
		if res.Status != Stopped {
			t.Fatalf("status = %v, want Stopped", res.Status)
		}
		if calls != 2 {
			t.Fatalf("callback invoked %d times after requesting stop at 2", calls)
		}
		if res.Iterations != 2 {
			t.Fatalf("Iterations = %d, want 2", res.Iterations)
		}
	})
}

func TestStoppedStatusString(t *testing.T) {
	if got := Stopped.String(); got != "stopped by callback" {
		t.Fatalf("Stopped.String() = %q", got)
	}
}

func TestRestartSeedIdentityAndSpread(t *testing.T) {
	const seed = int64(42)
	if RestartSeed(seed, 0) != seed {
		t.Fatal("restart 0 must use the base seed unchanged")
	}
	seen := map[int64]bool{}
	for r := 0; r < 64; r++ {
		s := RestartSeed(seed, r)
		if seen[s] {
			t.Fatalf("duplicate derived seed at restart %d", r)
		}
		seen[s] = true
	}
}

func TestRestartsWinnerIndependentOfWorkers(t *testing.T) {
	// Losses chosen so the minimum (restart 5) and a tie (2 and 7 share
	// 0.3) exercise both the argmin and the lowest-index tie-break.
	losses := []float64{0.9, 0.5, 0.3, 0.8, 0.4, 0.1, 0.6, 0.3}
	for _, workers := range []int{0, 1, 2, 4, 16} {
		best, err := Restarts(context.Background(), len(losses), workers, nil, func(_ context.Context, r int) (float64, error) {
			return losses[r], nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if best != 5 {
			t.Fatalf("workers=%d: best=%d, want 5", workers, best)
		}
	}

	tied := []float64{0.3, 0.3, 0.3}
	for _, workers := range []int{1, 3} {
		best, err := Restarts(context.Background(), len(tied), workers, nil, func(_ context.Context, r int) (float64, error) {
			return tied[r], nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if best != 0 {
			t.Fatalf("workers=%d: tie must break to the lowest index, got %d", workers, best)
		}
	}
}

func TestRestartsErrorPolicy(t *testing.T) {
	boom := errors.New("boom")

	// A failing restart is ignored when another succeeds.
	best, err := Restarts(context.Background(), 3, 2, nil, func(_ context.Context, r int) (float64, error) {
		if r == 0 {
			return 0, boom
		}
		if r == 1 {
			return math.NaN(), nil // non-finite loss never wins
		}
		return 1.5, nil
	})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if best != 2 {
		t.Fatalf("best=%d, want 2", best)
	}

	// All restarts failing joins every per-restart error.
	_, err = Restarts(context.Background(), 3, 2, nil, func(_ context.Context, r int) (float64, error) {
		if r == 1 {
			return math.NaN(), nil
		}
		return 0, fmt.Errorf("restart-specific %d: %w", r, boom)
	})
	if err == nil {
		t.Fatal("want joined error when every restart fails")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("joined error should wrap the restart errors: %v", err)
	}
	for _, frag := range []string{"restart 0:", "restart 1:", "restart 2:", "non-finite final loss"} {
		if !containsStr(err.Error(), frag) {
			t.Errorf("joined error missing %q: %v", frag, err)
		}
	}

	// −Inf would undercut every finite loss; it must not win either.
	losses := []float64{5, math.Inf(-1), 3}
	best, err = Restarts(context.Background(), 3, 2, nil, func(_ context.Context, r int) (float64, error) {
		return losses[r], nil
	})
	if err != nil || best != 2 {
		t.Fatalf("losses %v: best=%d err=%v, want 2", losses, best, err)
	}

	// Only +Inf losses: no winner, the joined error instead.
	best, err = Restarts(context.Background(), 2, 2, nil, func(_ context.Context, r int) (float64, error) {
		return math.Inf(1), nil
	})
	if err == nil || !containsStr(err.Error(), "non-finite final loss") {
		t.Fatalf("all +Inf losses: best=%d err=%v, want the joined non-finite error", best, err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRestartsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	started := 0
	_, err := Restarts(ctx, 8, 2, nil, func(ctx context.Context, r int) (float64, error) {
		mu.Lock()
		started++
		mu.Unlock()
		cancel() // first running restarts cancel the rest
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if started >= 8 {
		t.Fatalf("all %d restarts ran despite cancellation", started)
	}
}

func TestRestartsCompletedBeforeCancelReturnsResult(t *testing.T) {
	// If every restart finished successfully before the context was
	// cancelled, the computed winner is whole and must be returned.
	ctx, cancel := context.WithCancel(context.Background())
	losses := []float64{2, 1, 3}
	best, err := Restarts(ctx, len(losses), 1, nil, func(_ context.Context, r int) (float64, error) {
		if r == len(losses)-1 {
			defer cancel()
		}
		return losses[r], nil
	})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if best != 1 {
		t.Fatalf("best=%d, want 1", best)
	}
}

func TestContextCallbackForwardsAndStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := &recordingTrace{}
	cb := ContextCallback(ctx, tr, 3)
	if stop := cb(Iteration{Iter: 0, F: 1}); stop {
		t.Fatal("callback requested stop with a live context")
	}
	cancel()
	if stop := cb(Iteration{Iter: 1, F: 0.5}); !stop {
		t.Fatal("callback must request stop after cancellation")
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.iters) != 2 || tr.iters[0].restart != 3 || tr.iters[1].it.Iter != 1 {
		t.Fatalf("trace events not forwarded: %+v", tr.iters)
	}
}

type traceIter struct {
	restart int
	it      Iteration
}

type recordingTrace struct {
	mu     sync.Mutex
	starts []int
	iters  []traceIter
	ends   []int
}

func (t *recordingTrace) RestartStart(r int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.starts = append(t.starts, r)
}

func (t *recordingTrace) Iteration(r int, it Iteration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.iters = append(t.iters, traceIter{r, it})
}

func (t *recordingTrace) RestartEnd(r int, res Result, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ends = append(t.ends, r)
}
