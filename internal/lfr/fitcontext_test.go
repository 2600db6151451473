package lfr

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/optimize"
)

type lfrCancelTrace struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	events int
}

func (c *lfrCancelTrace) RestartStart(int) {}
func (c *lfrCancelTrace) Iteration(int, optimize.Iteration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events++
	if c.events == 2 {
		c.cancel()
	}
}
func (c *lfrCancelTrace) RestartEnd(int, optimize.Result, error) {}

func TestFitContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y, protected := labelledData(rng, 80)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &lfrCancelTrace{cancel: cancel}
	opts := Options{
		K: 5, Az: 1, Ax: 1, Ay: 1,
		Restarts: 6, MaxIterations: 500,
		Seed: 3, Trace: tr,
	}
	_, err := FitContext(ctx, x, y, protected, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
