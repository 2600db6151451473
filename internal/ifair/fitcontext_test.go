package ifair

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/optimize"
)

func ctxOpts() Options {
	return Options{
		K:         4,
		Lambda:    1,
		Mu:        1,
		Protected: []int{3},
		Init:      InitMaskedProtected,
		Restarts:  8,
		Seed:      7,
	}
}

// TestFitContextParallelMatchesSerial is the acceptance criterion of the
// engine redesign: with Restarts=8, the winning model must be
// bit-identical between serial execution and a 4-worker pool.
func TestFitContextParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomData(rng, 40, 6)

	serialOpts := ctxOpts()
	serialOpts.RestartWorkers = 1
	serial, err := FitContext(context.Background(), x, serialOpts)
	if err != nil {
		t.Fatalf("serial fit: %v", err)
	}

	parallelOpts := ctxOpts()
	parallelOpts.RestartWorkers = 4
	parallel, err := FitContext(context.Background(), x, parallelOpts)
	if err != nil {
		t.Fatalf("parallel fit: %v", err)
	}

	if serial.Loss != parallel.Loss {
		t.Fatalf("winning loss differs: serial %v, parallel %v", serial.Loss, parallel.Loss)
	}
	for j, a := range serial.Alpha {
		if parallel.Alpha[j] != a {
			t.Fatalf("alpha[%d] differs: serial %v, parallel %v", j, a, parallel.Alpha[j])
		}
	}
	sp, pp := serial.Prototypes.Data(), parallel.Prototypes.Data()
	for i := range sp {
		if sp[i] != pp[i] {
			t.Fatalf("prototype datum %d differs: serial %v, parallel %v", i, sp[i], pp[i])
		}
	}
}

// TestFitMatchesFitContextBackground pins the convenience wrapper to the
// context-aware path.
func TestFitMatchesFitContextBackground(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomData(rng, 25, 5)
	opts := ctxOpts()
	opts.Restarts = 2

	a, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitContext(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Loss != b.Loss {
		t.Fatalf("Fit loss %v != FitContext loss %v", a.Loss, b.Loss)
	}
}

func TestFitContextAlreadyCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randomData(rng, 20, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := FitContext(ctx, x, ctxOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancellingTrace cancels the context after the first few iteration
// events, so the fit is aborted mid-optimisation.
type cancellingTrace struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	after  int
	events int
	iters  int
}

func (c *cancellingTrace) RestartStart(int) {}

func (c *cancellingTrace) Iteration(int, optimize.Iteration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events++
	c.iters++
	if c.events == c.after {
		c.cancel()
	}
}

func (c *cancellingTrace) RestartEnd(int, optimize.Result, error) {}

func TestFitContextPromptCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomData(rng, 60, 6)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancellingTrace{cancel: cancel, after: 3}

	opts := ctxOpts()
	opts.Restarts = 8
	opts.RestartWorkers = 2
	opts.MaxIterations = 500
	opts.Trace = tr

	start := time.Now()
	_, err := FitContext(ctx, x, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The whole fit must stop within about one iteration per in-flight
	// restart: at most the 3 pre-cancel events plus one trailing event per
	// worker, nowhere near 8 restarts × 500 iterations.
	tr.mu.Lock()
	iters := tr.iters
	tr.mu.Unlock()
	if iters > 3+opts.RestartWorkers {
		t.Fatalf("observed %d iteration events after cancelling at 3; cancellation did not propagate within one iteration", iters)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled fit took %v", elapsed)
	}
}

// orderedTrace records events to check the per-restart protocol.
type orderedTrace struct {
	mu      sync.Mutex
	started map[int]bool
	iters   map[int]int
	ended   map[int]optimize.Result
}

func newOrderedTrace() *orderedTrace {
	return &orderedTrace{started: map[int]bool{}, iters: map[int]int{}, ended: map[int]optimize.Result{}}
}

func (o *orderedTrace) RestartStart(r int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started[r] = true
}

func (o *orderedTrace) Iteration(r int, it optimize.Iteration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.started[r] {
		o.iters[-1]++ // iteration before start: flagged below
		return
	}
	o.iters[r]++
}

func (o *orderedTrace) RestartEnd(r int, res optimize.Result, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ended[r] = res
}

func TestFitContextTraceProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomData(rng, 30, 5)

	tr := newOrderedTrace()
	opts := ctxOpts()
	opts.Restarts = 3
	opts.RestartWorkers = 3
	opts.Trace = tr

	model, err := FitContext(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.iters[-1] > 0 {
		t.Fatal("iteration events observed before their RestartStart")
	}
	bestSeen := false
	for r := 0; r < opts.Restarts; r++ {
		if !tr.started[r] {
			t.Fatalf("restart %d never reported RestartStart", r)
		}
		res, ok := tr.ended[r]
		if !ok {
			t.Fatalf("restart %d never reported RestartEnd", r)
		}
		if tr.iters[r] == 0 {
			t.Fatalf("restart %d reported no iteration events", r)
		}
		if res.F == model.Loss {
			bestSeen = true
		}
	}
	if !bestSeen {
		t.Fatal("no RestartEnd result matches the winning model's loss")
	}
}

func TestFitContextBestOfPartialFailures(t *testing.T) {
	// FitContext hands its restarts to optimize.Restarts, whose
	// policy — a failed restart is skipped and the best surviving one
	// wins — TestRestartsErrorPolicy pins at the engine level. Options
	// offer no way to make a single restart fail, so this test pins the
	// fit side of that contract: four restarts on four workers return one
	// model with a positive loss.
	rng := rand.New(rand.NewSource(6))
	x := randomData(rng, 20, 4)
	opts := ctxOpts()
	opts.Restarts = 4
	opts.RestartWorkers = 4
	model, err := FitContext(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || model.Loss <= 0 {
		t.Fatalf("unexpected model: %+v", model)
	}
}
