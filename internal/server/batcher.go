package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/mat"
)

// ErrBusy rejects a row because its model already has MaxPending rows
// enqueued or in flight — the batcher's backpressure signal. The HTTP
// layer maps it to 429 + Retry-After.
var ErrBusy = errors.New("server: batcher at capacity")

// flushScratch is the pooled staging workspace of one flush: the input
// rows and the transform output share one backing slice, and the two
// matrix headers are re-pointed at it per batch (mat.Reset), so a steady
// request stream allocates nothing per flush — results are copied into
// each caller's own dst before the scratch returns to the pool.
type flushScratch struct {
	backing []float64
	x, xt   mat.Dense
}

// stage shapes the scratch for a rows×dims batch, growing the backing
// if needed.
func (s *flushScratch) stage(rows, dims int) {
	if need := 2 * rows * dims; cap(s.backing) < need {
		s.backing = make([]float64, need)
	} else {
		s.backing = s.backing[:need]
	}
	s.x.Reset(rows, dims, s.backing[:rows*dims])
	s.xt.Reset(rows, dims, s.backing[rows*dims:])
}

var flushPool = sync.Pool{New: func() any { return new(flushScratch) }}

// pendingRow is one enqueued single-row request. ctx lets the flush skip
// rows whose caller has already given up. dst is the caller-owned
// destination the flush copies the transformed row into; the flush never
// retains it past the result send. out carries the batch-level error, nil
// on success; the send orders the flush's writes to dst before the
// caller's reads.
type pendingRow struct {
	ctx context.Context
	row []float64
	dst []float64
	out chan error // buffered(1): flush never blocks on a gone caller
}

// modelQueue accumulates rows destined for one specific model instance.
type modelQueue struct {
	entry *Entry
	rows  []pendingRow
	timer *time.Timer
}

// flushJob is one detached batch awaiting a flush worker.
type flushJob struct {
	key   string
	entry *Entry
	rows  []pendingRow
}

// BatcherConfig sizes a Batcher.
type BatcherConfig struct {
	// MaxBatch is the flush threshold in rows (minimum 1).
	MaxBatch int
	// MaxWait is how long the oldest row may wait for batch partners;
	// ≤ 0 disables coalescing (rows are transformed inline).
	MaxWait time.Duration
	// Workers is the worker-pool width of each batched transform
	// (minimum 1).
	Workers int
	// FlushWorkers bounds the goroutines executing flushes (minimum 1).
	// Under overload flushes queue behind the pool instead of spawning
	// one goroutine per batch.
	FlushWorkers int
	// MaxPending caps rows enqueued or in flight per model key; further
	// rows are shed with ErrBusy. ≤ 0 means unlimited.
	MaxPending int
	// Sizes, when non-nil, observes every flushed batch size.
	Sizes *Histogram
	// FlushPanics, when non-nil, counts recovered flush panics.
	FlushPanics *Counter
	// Abandoned, when non-nil, counts rows skipped at flush time because
	// their request context was already done.
	Abandoned *Counter
	// Shed, when non-nil, counts rows rejected by MaxPending.
	Shed *Counter
}

func (c *BatcherConfig) fillDefaults() {
	if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.FlushWorkers < 1 {
		c.FlushWorkers = 1
	}
}

// Batcher coalesces concurrent single-row transform requests into one
// batched call per model to the entry's compiled kernel
// (CompiledKernel.TransformInto, chunked by internal/par across Workers
// goroutines). A batch is flushed when it
// reaches MaxBatch rows or when the oldest row has waited MaxWait,
// whichever comes first. Under low concurrency this adds at most MaxWait
// of latency; under high concurrency batches fill instantly and the
// amortised per-row cost approaches the pure batched-transform cost.
//
// Flushes execute on a bounded worker pool (FlushWorkers) and each model
// key carries at most MaxPending rows, so a traffic burst queues bounded
// work and sheds the rest instead of spawning goroutines without limit.
type Batcher struct {
	cfg BatcherConfig

	// transform is the batched transform, writing every row of x into
	// the matching row of dst — overridable by tests to inject failures
	// the real kernel cannot produce (e.g. panics).
	transform func(e *Entry, dst, x *mat.Dense, workers int) error

	mu      sync.Mutex
	cond    *sync.Cond // signalled when jobs arrive or the batcher closes
	queues  map[string]*modelQueue
	pending map[string]int // model key → rows enqueued or in flight
	jobs    []flushJob
	running int // live flush workers
	closed  bool
}

// NewBatcher returns a batcher with the given configuration.
func NewBatcher(cfg BatcherConfig) *Batcher {
	cfg.fillDefaults()
	b := &Batcher{
		cfg: cfg,
		transform: func(e *Entry, dst, x *mat.Dense, workers int) error {
			kern, err := e.Kernel()
			if err != nil {
				return err
			}
			return kern.TransformInto(dst, x, workers)
		},
		queues:  make(map[string]*modelQueue),
		pending: make(map[string]int),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// TransformRowInto transforms one row through the named model entry into
// dst (length Dims), coalescing with other concurrent rows for the same
// (name, version). It blocks until the row's batch is flushed or ctx is
// done, and sheds with ErrBusy when the model's pending-row cap is
// reached.
//
// Ownership: on a nil return dst holds the transformed row and is the
// caller's again. On ANY error — including ctx expiry — a late flush may
// still write dst, so the caller must not recycle it into a pool; the
// row buffer may likewise still be read. (Handlers therefore only pool
// buffers from successful calls.)
func (b *Batcher) TransformRowInto(ctx context.Context, entry *Entry, dst, row []float64) error {
	kern, err := entry.Kernel()
	if err != nil {
		return err
	}
	// Validate eagerly so a malformed row errors immediately instead of
	// poisoning the whole batch it would have joined.
	if len(row) != kern.Dims() {
		return fmt.Errorf("server: record has %d attributes, model %s expects %d", len(row), entry.Key(), kern.Dims())
	}
	if len(dst) != kern.OutDims() {
		return fmt.Errorf("server: destination has %d cells, model %s produces %d", len(dst), entry.Key(), kern.OutDims())
	}
	if b.cfg.MaxBatch == 1 || b.cfg.MaxWait <= 0 {
		return kern.TransformRowInto(dst, row)
	}

	out := make(chan error, 1)
	b.mu.Lock()
	key := entry.Key()
	if b.cfg.MaxPending > 0 && b.pending[key] >= b.cfg.MaxPending {
		b.mu.Unlock()
		if b.cfg.Shed != nil {
			b.cfg.Shed.Inc()
		}
		return fmt.Errorf("%w: model %s has %d pending rows", ErrBusy, key, b.cfg.MaxPending)
	}
	q := b.queues[key]
	// A hot-reload can swap the model behind a key; never mix rows from
	// two instances in one batch.
	if q != nil && q.entry != entry {
		b.flushLocked(key, q)
		q = nil
	}
	if q == nil {
		q = &modelQueue{entry: entry}
		b.queues[key] = q
		q.timer = time.AfterFunc(b.cfg.MaxWait, func() {
			b.mu.Lock()
			// Only flush if this queue generation is still pending.
			if cur, ok := b.queues[key]; ok && cur == q {
				b.flushLocked(key, cur)
			}
			b.mu.Unlock()
		})
	}
	q.rows = append(q.rows, pendingRow{ctx: ctx, row: row, dst: dst, out: out})
	b.pending[key]++
	if len(q.rows) >= b.cfg.MaxBatch {
		b.flushLocked(key, q)
	}
	b.mu.Unlock()

	select {
	case err := <-out:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flushLocked detaches the queue and hands it to the flush-worker pool.
// Callers must hold b.mu.
func (b *Batcher) flushLocked(key string, q *modelQueue) {
	delete(b.queues, key)
	if q.timer != nil {
		q.timer.Stop()
	}
	if len(q.rows) == 0 {
		return
	}
	b.jobs = append(b.jobs, flushJob{key: key, entry: q.entry, rows: q.rows})
	// Spin workers up lazily, one per queued job, up to the pool bound;
	// they stay for the batcher's lifetime.
	if !b.closed && b.running < b.cfg.FlushWorkers && b.running < len(b.jobs) {
		b.running++
		go b.flushWorker()
	}
	b.cond.Signal()
}

// flushWorker drains the job queue until the batcher closes and the
// queue is empty.
func (b *Batcher) flushWorker() {
	b.mu.Lock()
	for {
		for len(b.jobs) == 0 && !b.closed {
			b.cond.Wait()
		}
		if len(b.jobs) == 0 && b.closed {
			b.running--
			b.mu.Unlock()
			return
		}
		job := b.jobs[0]
		b.jobs[0] = flushJob{}
		b.jobs = b.jobs[1:]
		b.mu.Unlock()
		b.runJob(job)
		b.mu.Lock()
	}
}

// runJob transforms one detached batch and delivers per-row results.
// Rows whose request context is already done are skipped — their callers
// have returned and nobody would read the result. A panic inside the
// transform is recovered and delivered as an error to every still-waiting
// row, so no caller ever blocks forever on a dead flush.
func (b *Batcher) runJob(job flushJob) {
	live := job.rows[:0]
	abandoned := 0
	for _, p := range job.rows {
		if p.ctx != nil && p.ctx.Err() != nil {
			abandoned++
			continue
		}
		live = append(live, p)
	}
	if abandoned > 0 && b.cfg.Abandoned != nil {
		b.cfg.Abandoned.Add(int64(abandoned))
	}

	delivered := 0
	defer func() {
		if p := recover(); p != nil {
			if b.cfg.FlushPanics != nil {
				b.cfg.FlushPanics.Inc()
			}
			err := fmt.Errorf("server: batch flush panicked: %v", p)
			for _, pr := range live[delivered:] {
				pr.out <- err
			}
		}
		b.mu.Lock()
		if b.pending[job.key] -= len(job.rows); b.pending[job.key] <= 0 {
			delete(b.pending, job.key)
		}
		b.mu.Unlock()
	}()

	if len(live) == 0 {
		return
	}
	if b.cfg.Sizes != nil {
		b.cfg.Sizes.Observe(float64(len(live)))
	}
	// Results are copied into each caller's dst before its result send
	// (the send orders the copy before the caller's reads), so the
	// pooled staging never escapes the flush.
	dims := job.entry.Model.Dims()
	s := flushPool.Get().(*flushScratch)
	s.stage(len(live), dims)
	for i, p := range live {
		copy(s.x.Row(i), p.row)
	}
	err := b.transform(job.entry, &s.xt, &s.x, b.cfg.Workers)
	for i, p := range live {
		if err == nil {
			copy(p.dst, s.xt.Row(i))
		}
		p.out <- err
		delivered = i + 1
	}
	// Recycled only on the non-panic path: after a recovered transform
	// panic, stray goroutines could still be writing the scratch.
	flushPool.Put(s)
}

// PendingRows returns the total rows enqueued or in flight across all
// models — the batcher's share of a queue-depth gauge.
func (b *Batcher) PendingRows() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, c := range b.pending {
		n += c
	}
	return n
}

// Flush detaches every pending queue into the flush pool; used by tests
// and during shutdown. It does not wait for the flushes to complete —
// waiters are unblocked as their batches execute.
func (b *Batcher) Flush() {
	b.mu.Lock()
	for key, q := range b.queues {
		b.flushLocked(key, q)
	}
	b.mu.Unlock()
}

// Close flushes all pending queues and stops the flush workers once the
// job queue drains. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	for key, q := range b.queues {
		b.flushLocked(key, q)
	}
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
