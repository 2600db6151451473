package pipeline

import (
	"context"
	"sync"
	"sync/atomic"
)

// runJobs is the one job pool of the studies: it evaluates job(0), …,
// job(n-1) on at most parallel goroutines and returns every result and
// error in job order. One worker loop claims jobs in ascending index
// order; the calling goroutine runs it too, so with parallel ≤ 1 it
// runs inline and no goroutine starts. Every study seeds each job on
// its own, so the results do not depend on parallel. Once ctx is
// cancelled no further job starts (the ones in flight see ctx in their
// fits) and runJobs returns ctx.Err().
func runJobs[T any](ctx context.Context, parallel, n int, job func(i int) (T, error)) ([]T, []error, error) {
	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			results[i], errs[i] = job(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(parallel, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return results, errs, nil
}

// runAll is runJobs for a study that fails as a whole when one of its
// jobs fails: it returns the error of the lowest failing job index, so
// the error a study reports does not depend on which job finished first.
func runAll[T any](ctx context.Context, parallel, n int, job func(i int) (T, error)) ([]T, error) {
	results, errs, err := runJobs(ctx, parallel, n, job)
	for i := 0; err == nil && i < len(errs); i++ {
		err = errs[i]
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// bestBy returns the index of the highest-scoring result among those
// with ok(i), or -1 when there is none. Ties go to the lowest index, so
// a grid search picks the configuration a scan in grid order would.
func bestBy[T any](results []T, ok func(i int) bool, score func(T) float64) int {
	best := -1
	var bestScore float64
	for i, r := range results {
		if s := score(r); ok(i) && (best == -1 || s > bestScore) {
			best, bestScore = i, s
		}
	}
	return best
}

// succeeded is the ok predicate of bestBy for the jobs of a runJobs
// call that did not fail.
func succeeded(errs []error) func(i int) bool {
	return func(i int) bool { return errs[i] == nil }
}
