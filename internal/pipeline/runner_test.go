package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunJobsOrderAndBound(t *testing.T) {
	for _, parallel := range []int{-1, 0, 1, 2, 4, 64} {
		var running, peak atomic.Int64
		results, errs, err := runJobs(context.Background(), parallel, 40, func(i int) (int, error) {
			n := running.Add(1)
			defer running.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			if i%7 == 3 {
				return -i, fmt.Errorf("job %d", i)
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		for i := range results {
			wantErr := i%7 == 3
			if (errs[i] != nil) != wantErr {
				t.Fatalf("parallel %d: job %d error %v", parallel, i, errs[i])
			}
			if want := i * i; !wantErr && results[i] != want {
				t.Fatalf("parallel %d: results[%d] = %d, want %d", parallel, i, results[i], want)
			}
		}
		if limit := int64(max(parallel, 1)); peak.Load() > limit {
			t.Fatalf("parallel %d: %d jobs ran at once", parallel, peak.Load())
		}
	}
}

func TestRunJobsStopsOnCancel(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan struct{})
		var started atomic.Int64
		_, _, err := runJobs(ctx, parallel, 100, func(i int) (int, error) {
			started.Add(1)
			switch {
			case i == 5:
				cancel()
				close(cancelled)
			case i > 5:
				// Hold every later job until job 5 has cancelled, so a
				// worker cannot run ahead while job 5 waits to be scheduled.
				<-cancelled
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel %d: err = %v, want context.Canceled", parallel, err)
		}
		// Jobs 0–5 ran; each other worker finishes at most the one job it
		// had claimed and then stops.
		if n := started.Load(); n > 5+int64(parallel) {
			t.Fatalf("parallel %d: %d jobs started after cancellation at job 5", parallel, n)
		}
	}
}

// TestRunAllReportsLowestFailingJob: the reported error is the one of
// the lowest failing index, even when a later job fails first.
func TestRunAllReportsLowestFailingJob(t *testing.T) {
	release := make(chan struct{})
	_, err := runAll(context.Background(), 4, 8, func(i int) (int, error) {
		switch i {
		case 2:
			<-release
			return 0, errors.New("job 2")
		case 6:
			defer close(release)
			return 0, errors.New("job 6")
		}
		return i, nil
	})
	if err == nil || err.Error() != "job 2" {
		t.Fatalf("err = %v, want job 2", err)
	}
}

func TestBestByFirstWinsTiesAndSkipsFailed(t *testing.T) {
	scores := []float64{3, 5, 9, 5, 9, 1}
	errs := []error{nil, nil, errors.New("failed"), nil, nil, nil}
	if got := bestBy(scores, succeeded(errs), func(s float64) float64 { return s }); got != 4 {
		t.Fatalf("best = %d, want 4 (index 2 failed)", got)
	}
	errs[2] = nil
	if got := bestBy(scores, succeeded(errs), func(s float64) float64 { return s }); got != 2 {
		t.Fatalf("best = %d, want 2 (first of the tied 9s)", got)
	}
	none := func(int) bool { return false }
	if got := bestBy(scores, none, func(s float64) float64 { return s }); got != -1 {
		t.Fatalf("best = %d with every job failed, want -1", got)
	}
}
