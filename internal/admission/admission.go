// Package admission is the serving path's overload valve: a bounded
// concurrency limiter fronted by a bounded, deadline-aware FIFO wait
// queue. A request is admitted immediately when a slot is free, waits
// its turn when the queue has room, and is shed — with a typed error the
// HTTP layer maps to 429/503 + Retry-After — when the queue is full,
// when it has waited longer than the queue-time cap, or when its own
// deadline has already passed. Under overload the server's work stays
// bounded at MaxConcurrent + MaxQueue requests; everything beyond that
// is refused in O(1) instead of accumulating.
package admission

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Shed errors. All satisfy errors.Is(err, ErrShed).
var (
	// ErrShed is the root of every admission rejection.
	ErrShed = errors.New("admission: request shed")
	// ErrQueueFull rejects a request because the wait queue is at
	// capacity — the "try again later" overload signal (HTTP 429).
	ErrQueueFull = errors.New("admission: wait queue full")
	// ErrQueueTimeout rejects a request that waited the full queue-time
	// cap without a slot freeing up (HTTP 503).
	ErrQueueTimeout = errors.New("admission: queue wait exceeded cap")
	// ErrDeadline rejects a request whose own deadline has already
	// passed — serving it would compute a result nobody is still waiting
	// for (HTTP 503).
	ErrDeadline = errors.New("admission: request deadline cannot be met")
)

func shedErr(err error) error { return errors.Join(ErrShed, err) }

// Config sizes a Limiter.
type Config struct {
	// MaxConcurrent is the number of requests allowed to execute at
	// once (minimum 1).
	MaxConcurrent int
	// MaxQueue is the number of requests allowed to wait for a slot;
	// 0 disables queueing entirely (busy ⇒ immediate shed).
	MaxQueue int
	// MaxQueueWait caps how long a request may sit in the queue before
	// it is shed; ≤ 0 means waiters are bounded only by their own
	// context deadline.
	MaxQueueWait time.Duration
}

// Stats is a snapshot of a Limiter's counters and occupancy.
type Stats struct {
	// Inflight is the number of currently admitted requests.
	Inflight int
	// QueueDepth is the number of requests currently waiting.
	QueueDepth int
	// Admitted counts requests granted a slot (immediately or after
	// queueing).
	Admitted uint64
	// Queued counts requests that had to wait before any outcome.
	Queued uint64
	// ShedFull, ShedTimeout and ShedDeadline count rejections by cause.
	ShedFull     uint64
	ShedTimeout  uint64
	ShedDeadline uint64
}

// waiter is one queued request. ready is closed exactly once, under the
// limiter's lock, when the waiter is granted a slot; gone marks a waiter
// that stopped waiting so a grant skips it.
type waiter struct {
	ready chan struct{}
	gone  bool
}

// Limiter is the admission controller. The zero value is not usable;
// call NewLimiter.
type Limiter struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	queue    []*waiter
	head     int // queue[:head] already popped (lazy compaction)
	depth    int // live (non-gone) waiters
	stats    Stats
}

// NewLimiter builds a Limiter; non-positive MaxConcurrent is raised to 1
// and negative MaxQueue is clamped to 0.
func NewLimiter(cfg Config) *Limiter {
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	return &Limiter{cfg: cfg}
}

// Acquire blocks until the request is admitted or shed. On admission it
// returns a release function that MUST be called exactly once when the
// request finishes (it is idempotent, extra calls are no-ops). On shed
// it returns one of the Err* values above, or ctx.Err() when the
// caller's context expired while queued.
func (l *Limiter) Acquire(ctx context.Context) (release func(), err error) {
	// Already-expired requests are shed before they occupy anything.
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= 0 {
		l.mu.Lock()
		l.stats.ShedDeadline++
		l.mu.Unlock()
		return nil, shedErr(ErrDeadline)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	l.mu.Lock()
	if l.inflight < l.cfg.MaxConcurrent && l.depth == 0 {
		l.inflight++
		l.stats.Admitted++
		l.mu.Unlock()
		return l.releaseOnce(), nil
	}
	if l.depth >= l.cfg.MaxQueue {
		l.stats.ShedFull++
		l.mu.Unlock()
		return nil, shedErr(ErrQueueFull)
	}
	w := &waiter{ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.depth++
	l.stats.Queued++
	l.mu.Unlock()

	var capC <-chan time.Time
	if l.cfg.MaxQueueWait > 0 {
		t := time.NewTimer(l.cfg.MaxQueueWait)
		defer t.Stop()
		capC = t.C
	}
	select {
	case <-w.ready:
		return l.releaseOnce(), nil
	case <-ctx.Done():
		if l.abandon(w, nil) {
			// The grant raced our abandonment: we own a slot, hand it on.
			l.release()
		}
		return nil, ctx.Err()
	case <-capC:
		if l.abandon(w, &l.stats.ShedTimeout) {
			// Granted in the same instant the cap fired — use the slot.
			return l.releaseOnce(), nil
		}
		return nil, shedErr(ErrQueueTimeout)
	}
}

// abandon marks w as no longer waiting. It reports whether w had already
// been granted (in which case the caller owns a slot it must release).
// When the waiter was still pending, shedCounter (if non-nil) is
// incremented.
func (l *Limiter) abandon(w *waiter, shedCounter *uint64) (granted bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-w.ready:
		return true
	default:
	}
	w.gone = true
	l.depth--
	if shedCounter != nil {
		*shedCounter++
	}
	// Waiter churn behind a blocked queue head must not grow the slice
	// without bound: once abandoned entries dominate, filter them out.
	if gone := len(l.queue) - l.head - l.depth; gone > 64 && gone > l.depth {
		live := l.queue[:0]
		for _, q := range l.queue[l.head:] {
			if q != nil && !q.gone {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(l.queue); i++ {
			l.queue[i] = nil
		}
		l.queue = live
		l.head = 0
	}
	return false
}

// releaseOnce wraps release so double-calling a handler's deferred
// release is harmless.
func (l *Limiter) releaseOnce() func() {
	var once sync.Once
	return func() { once.Do(l.release) }
}

// release frees one slot and grants it to the oldest live waiter.
func (l *Limiter) release() {
	l.mu.Lock()
	l.inflight--
	l.grantLocked()
	l.mu.Unlock()
}

// grantLocked pops abandoned waiters and hands free slots to the queue
// head, FIFO. Callers must hold l.mu.
func (l *Limiter) grantLocked() {
	for l.head < len(l.queue) {
		w := l.queue[l.head]
		if w.gone {
			l.queue[l.head] = nil
			l.head++
			continue
		}
		if l.inflight >= l.cfg.MaxConcurrent {
			break
		}
		l.queue[l.head] = nil
		l.head++
		l.depth--
		l.inflight++
		l.stats.Admitted++
		close(w.ready)
	}
	if l.head == len(l.queue) {
		l.queue = l.queue[:0]
		l.head = 0
	} else if l.head > 64 && l.head*2 >= len(l.queue) {
		n := copy(l.queue, l.queue[l.head:])
		for i := n; i < len(l.queue); i++ {
			l.queue[i] = nil
		}
		l.queue = l.queue[:n]
		l.head = 0
	}
}

// Stats returns a consistent snapshot of the limiter's state.
func (l *Limiter) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Inflight = l.inflight
	s.QueueDepth = l.depth
	return s
}
