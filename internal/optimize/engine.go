package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/par"
)

// This file is the shared training engine used by every learner in the
// repository (ifair, lfr, adversarial): per-iteration progress events, a
// pluggable Trace sink, deterministic per-restart seed derivation, and a
// context-aware bounded worker pool that runs random restarts concurrently
// while selecting the winner exactly as a serial loop would.

// Iteration is one per-iteration progress event emitted through
// Settings.Callback: the outer iteration index, the objective value and
// gradient norm after the iteration's step, the accepted step length, and
// the cumulative number of objective evaluations.
type Iteration struct {
	Iter     int
	F        float64
	GradNorm float64
	Step     float64
	Evals    int
}

// Trace observes a training run: one RestartStart/RestartEnd pair per
// random restart, with Iteration events in between. When restarts run
// concurrently, methods are called from multiple goroutines (events of
// different restarts interleave, each restart's own events stay ordered),
// so implementations must be safe for concurrent use.
type Trace interface {
	RestartStart(restart int)
	Iteration(restart int, it Iteration)
	RestartEnd(restart int, res Result, err error)
}

// RestartSeed derives the RNG seed of restart r from the base seed.
// Restart 0 uses the base seed itself — preserving the draws of the
// historical serial path — and later restarts use a splitmix64-style
// mixing so every restart's stream is independent of execution order.
func RestartSeed(seed int64, restart int) int64 {
	if restart == 0 {
		return seed
	}
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(restart)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ContextCallback builds a Settings.Callback that forwards each iteration
// event of the given restart to trace (when non-nil) and asks the
// optimizer to stop as soon as ctx is cancelled or past its deadline, so a
// cancelled fit returns within one iteration.
func ContextCallback(ctx context.Context, trace Trace, restart int) func(Iteration) bool {
	return func(it Iteration) bool {
		if trace != nil {
			trace.Iteration(restart, it)
		}
		return ctx.Err() != nil
	}
}

// RestartLedger is the durable memory of a multi-restart run, letting a
// resumed fit skip work a previous (crashed or killed) process already
// finished. Because each restart is a pure function of its derived seed,
// replaying recorded outcomes and re-running the rest yields the same
// winner — bit-identical — as an uninterrupted run.
//
// With parallel restarts, Lookup and Record are called from multiple
// goroutines (at most once each per restart index); implementations must
// be safe for concurrent use.
type RestartLedger interface {
	// Lookup returns the recorded outcome of restart r: its final loss,
	// its error if it failed, and done=true when a record exists (the
	// restart is then skipped, the recorded outcome standing in for it).
	Lookup(r int) (loss float64, err error, done bool)
	// Record stores the outcome of restart r after it ran to completion
	// in this process. It is not called for restarts cut short by
	// context cancellation — an interrupted restart is re-run on resume.
	Record(r int, loss float64, err error)
}

// Restarts runs fn(ctx, r) for every restart index r in [0, n) on a
// bounded pool of min(workers, n) goroutines (workers ≤ 1 runs serially on
// the calling goroutine) and returns the index of the restart with the
// lowest returned loss. Ties break on the lower restart index and
// non-finite losses never win, so the winner is identical for every worker
// count and schedule — the parallel path is bit-identical to the serial
// one as long as fn itself is deterministic per restart index.
//
// Error policy: a failed restart does not abort the run. If at least one
// restart returns a finite loss without error, its index is returned and
// the failures are discarded; if every restart fails, the per-restart
// errors are joined into one. Once ctx is cancelled, restarts that have
// not started are skipped, and if any restart was cut short the run
// reports ctx.Err() rather than a winner chosen from partial work.
//
// A non-nil ledger makes the run crash-safe: restarts the ledger already
// holds are skipped (their recorded loss competing for the win exactly as
// a fresh result would), and every restart that finishes here —
// successfully or with its own error — is recorded. Cancelled restarts
// are not recorded, so a killed run resumes them from scratch.
func Restarts(ctx context.Context, n, workers int, ledger RestartLedger, fn func(ctx context.Context, restart int) (loss float64, err error)) (best int, err error) {
	if n <= 0 {
		n = 1
	}
	losses := make([]float64, n)
	errs := make([]error, n)
	run := func(r int) {
		if err := ctx.Err(); err != nil {
			errs[r] = err
			return
		}
		if ledger != nil {
			if loss, lerr, done := ledger.Lookup(r); done {
				losses[r], errs[r] = loss, lerr
				return
			}
		}
		losses[r], errs[r] = fn(ctx, r)
		if ledger != nil && !(errs[r] != nil && ctx.Err() != nil) {
			ledger.Record(r, losses[r], errs[r])
		}
	}
	// Each restart writes only its own losses[r]/errs[r] cell and the
	// winner scan below visits cells in ascending index order, so the
	// chunked fan-out (dynamic dispatch included) cannot change the
	// outcome. Restart counts are far below par.MaxChunks in practice,
	// so every chunk is a single restart and load balancing matches the
	// old one-index-at-a-time pool.
	par.Chunks(n).Run(workers, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			run(r)
		}
	})

	if err := ctx.Err(); err != nil {
		for r := 0; r < n; r++ {
			if errs[r] != nil {
				return -1, err
			}
		}
		// Every restart completed before the cancellation landed; the
		// result is whole, so return it.
	}
	best = -1
	for r := 0; r < n; r++ {
		if errs[r] != nil || math.IsNaN(losses[r]) || math.IsInf(losses[r], 0) {
			continue
		}
		if best == -1 || losses[r] < losses[best] {
			best = r
		}
	}
	if best >= 0 {
		return best, nil
	}
	joined := make([]error, 0, n)
	for r, e := range errs {
		if e == nil {
			e = errors.New("non-finite final loss")
		}
		joined = append(joined, fmt.Errorf("restart %d: %w", r, e))
	}
	return -1, errors.Join(joined...)
}
