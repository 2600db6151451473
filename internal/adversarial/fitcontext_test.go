package adversarial

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/optimize"
)

func TestFitContextCancelledBeforeStart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, protected := leakyData(rng, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := FitContext(ctx, x, protected, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

type roundTrace struct {
	mu     sync.Mutex
	starts int
	iters  []optimize.Iteration
	end    *optimize.Result
	endErr error
}

func (r *roundTrace) RestartStart(int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts++
}

func (r *roundTrace) Iteration(_ int, it optimize.Iteration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.iters = append(r.iters, it)
}

func (r *roundTrace) RestartEnd(_ int, res optimize.Result, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.end = &res
	r.endErr = err
}

func TestFitContextTraceReportsRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, protected := leakyData(rng, 120)

	tr := &roundTrace{}
	model, err := FitContext(context.Background(), x, protected, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.starts != 1 {
		t.Fatalf("RestartStart called %d times, want 1", tr.starts)
	}
	if tr.end == nil {
		t.Fatal("RestartEnd never called")
	}
	if tr.endErr != nil {
		t.Fatalf("RestartEnd error: %v", tr.endErr)
	}
	// One iteration event per probe round, plus the final sub-threshold
	// probe that triggers the stop.
	rounds := removedDirections(model.P)
	if len(tr.iters) != rounds+1 || tr.end.Iterations != rounds {
		t.Fatalf("got %d iteration events and Iterations=%d for %d rounds", len(tr.iters), tr.end.Iterations, rounds)
	}
	for i, it := range tr.iters {
		if it.Iter != i {
			t.Fatalf("iteration %d has Iter=%d", i, it.Iter)
		}
		if it.F < 0 || it.F > 1 {
			t.Fatalf("iteration %d probe accuracy %v outside [0,1]", i, it.F)
		}
	}
	if last := tr.iters[len(tr.iters)-1].F; tr.end.F != last {
		t.Fatalf("RestartEnd F=%v, final probe accuracy %v", tr.end.F, last)
	}
	if tr.end.Status != optimize.Converged {
		t.Fatalf("status = %v, want Converged for a censored fit", tr.end.Status)
	}
}

func TestFitContextMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, protected := leakyData(rng, 80)
	a, err := Fit(x, protected, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitContext(context.Background(), x, protected, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(a.P, b.P, 0) {
		t.Fatalf("Fit and FitContext diverge: %v vs %v", a.P, b.P)
	}
}
