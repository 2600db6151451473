package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestImmediateAdmissionUpToMaxConcurrent(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 3, MaxQueue: 0})
	var releases []func()
	for i := 0; i < 3; i++ {
		rel, err := l.Acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		releases = append(releases, rel)
	}
	if s := l.Stats(); s.Inflight != 3 || s.Admitted != 3 {
		t.Fatalf("stats = %+v, want 3 inflight / 3 admitted", s)
	}
	// Fourth request with no queue: shed immediately as queue-full.
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if !errors.Is(errors.Join(ErrShed, ErrQueueFull), ErrShed) {
		t.Fatal("sanity: joined error should match ErrShed")
	}
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("shed error %v does not match ErrShed", err)
	}
	for _, rel := range releases {
		rel()
	}
	if s := l.Stats(); s.Inflight != 0 {
		t.Fatalf("inflight = %d after release, want 0", s.Inflight)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, MaxQueue: 8})
	rel, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 4
	order := make(chan int, waiters)
	started := make(chan struct{}, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Serialise enqueue order: waiter i enqueues before i+1 starts.
			<-started
			r, err := l.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			r()
		}(i)
		started <- struct{}{}
		waitForDepth(t, l, i+1)
	}
	rel()
	wg.Wait()
	close(order)
	prev := -1
	for got := range order {
		if got != prev+1 {
			t.Fatalf("grant order broke FIFO: got %d after %d", got, prev)
		}
		prev = got
	}
}

// waitForDepth spins until the limiter's queue depth reaches n.
func waitForDepth(t *testing.T, l *Limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().QueueDepth < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (stats %+v)", n, l.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestQueueFullSheds(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, MaxQueue: 2})
	rel, _ := l.Acquire(context.Background())
	defer rel()
	for i := 0; i < 2; i++ {
		go func() {
			r, err := l.Acquire(context.Background())
			if err == nil {
				r()
			}
		}()
	}
	waitForDepth(t, l, 2)
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if s := l.Stats(); s.ShedFull != 1 {
		t.Fatalf("ShedFull = %d, want 1", s.ShedFull)
	}
}

func TestQueueTimeCapSheds(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, MaxQueue: 4, MaxQueueWait: 20 * time.Millisecond})
	rel, _ := l.Acquire(context.Background())
	defer rel()
	start := time.Now()
	_, err := l.Acquire(context.Background())
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("shed after %v, before the queue-time cap", waited)
	}
	if s := l.Stats(); s.ShedTimeout != 1 || s.QueueDepth != 0 {
		t.Fatalf("stats = %+v, want ShedTimeout 1, depth 0", s)
	}
}

func TestDeadlineInfeasibleShedsImmediately(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, MaxQueue: 4})
	// A deadline already in the past: shed without queueing, even though
	// a slot is free.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	_, err := l.Acquire(ctx)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if time.Since(start) > 5*time.Millisecond {
		t.Fatal("deadline-infeasible shed was not immediate")
	}
	if s := l.Stats(); s.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", s.ShedDeadline)
	}
}

func TestContextExpiryWhileQueued(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, MaxQueue: 4})
	rel, _ := l.Acquire(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err := l.Acquire(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if s := l.Stats(); s.QueueDepth != 0 {
		t.Fatalf("abandoned waiter left depth %d", s.QueueDepth)
	}
	// The abandoned waiter must not absorb the next grant.
	granted := make(chan struct{})
	go func() {
		r, err := l.Acquire(context.Background())
		if err != nil {
			t.Error(err)
			return
		}
		close(granted)
		r()
	}()
	waitForDepth(t, l, 1)
	rel()
	select {
	case <-granted:
	case <-time.After(5 * time.Second):
		t.Fatal("live waiter starved behind an abandoned one")
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 2})
	rel, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel()
	rel()
	if s := l.Stats(); s.Inflight != 0 {
		t.Fatalf("inflight = %d after double release, want 0", s.Inflight)
	}
}

// TestConcurrentChurn hammers the limiter from many goroutines under
// the race detector: inflight never exceeds MaxConcurrent, queue depth
// never exceeds MaxQueue, and every admitted request releases.
func TestConcurrentChurn(t *testing.T) {
	const (
		maxConc  = 4
		maxQueue = 8
		workers  = 32
		iters    = 200
	)
	l := NewLimiter(Config{MaxConcurrent: maxConc, MaxQueue: maxQueue, MaxQueueWait: 2 * time.Millisecond})
	var inflight, peak atomic.Int64
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				if i%3 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%5)*time.Millisecond)
					defer cancel()
				}
				rel, err := l.Acquire(ctx)
				if err != nil {
					shed.Add(1)
					continue
				}
				n := inflight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				admitted.Add(1)
				if s := l.Stats(); s.QueueDepth > maxQueue {
					t.Errorf("queue depth %d exceeds cap %d", s.QueueDepth, maxQueue)
				}
				time.Sleep(50 * time.Microsecond)
				inflight.Add(-1)
				rel()
			}
		}(w)
	}
	wg.Wait()
	if p := peak.Load(); p > maxConc {
		t.Fatalf("observed %d concurrent admissions, cap is %d", p, maxConc)
	}
	if admitted.Load() == 0 {
		t.Fatal("no requests admitted at all")
	}
	s := l.Stats()
	if s.Inflight != 0 || s.QueueDepth != 0 {
		t.Fatalf("limiter not drained: %+v", s)
	}
	// Admitted may exceed the callers' count: a grant that races a
	// context expiry is recorded, handed straight back, and surfaces to
	// its caller as an error.
	if got := s.Admitted; got < uint64(admitted.Load()) {
		t.Fatalf("Admitted = %d, but callers counted %d successes", got, admitted.Load())
	}
	t.Logf("admitted %d, shed %d, peak inflight %d", admitted.Load(), shed.Load(), peak.Load())
}

// TestAbandonedChurnDoesNotGrowQueue checks the compaction path: with a
// permanently blocked head of line, thousands of timed-out waiters must
// not leave the internal queue slice holding onto them.
func TestAbandonedChurnDoesNotGrowQueue(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, MaxQueue: 512})
	rel, _ := l.Acquire(context.Background())
	defer rel()
	for i := 0; i < 2000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			// Enqueues behind the blocked holder, then is abandoned.
			l.Acquire(ctx) //nolint:errcheck
			close(done)
		}()
		waitForDepth(t, l, 1)
		cancel()
		<-done
	}
	l.mu.Lock()
	qlen := len(l.queue)
	l.mu.Unlock()
	if qlen > 1100 {
		t.Fatalf("queue slice holds %d entries after abandoned churn", qlen)
	}
	if s := l.Stats(); s.QueueDepth != 0 {
		t.Fatalf("depth = %d, want 0", s.QueueDepth)
	}
}
