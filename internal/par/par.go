// Package par owns deterministic chunked fan-out for every parallel hot
// path in the repository: objective evaluation (internal/ifair,
// internal/lfr), batch transforms (internal/ifair, internal/server),
// null-space projection (internal/adversarial) and the restart pool
// (internal/optimize).
//
// The package exists to make one class of bug structurally impossible:
// a reduction that sums partial buffers over a chunk count computed by
// different arithmetic than the arithmetic that launched the chunks.
// Here a Plan is the single source of truth — the number of chunks is
// derived from the work-item total alone, Bounds and Run use the same
// partition, and Scalars/Partials buffers are sized from the Plan, so a
// partial cell exists if and only if a chunk writes it.
//
// Determinism contract: the chunk count never depends on the worker
// count, every chunk is executed exactly once, and the reduction
// helpers combine per-chunk partials in ascending chunk order. Workers
// only decide which goroutine computes a chunk, never what is computed
// or in which order partials combine — so any computation whose
// cross-chunk state lives in Scalars/Partials (or in chunk-exclusive
// rows) produces bit-identical results for every worker count,
// including the inline workers ≤ 1 path.
package par

import (
	"sync"
	"sync/atomic"
)

// MaxChunks bounds how many chunks a Plan splits work into, and
// therefore the useful parallelism of a single Run as well as the
// number of partial buffers a reduction keeps alive. It is a property
// of the plan, not of the machine: fixing it keeps the partition — and
// with it every chunk-ordered reduction — independent of core counts.
const MaxChunks = 32

// Plan is a deterministic partition of the half-open range [0, total)
// into min(total, MaxChunks) contiguous, non-empty chunks of
// near-equal size. The zero Plan (total 0) has no chunks and Run on it
// is a no-op.
type Plan struct {
	total  int
	chunks int
}

// Chunks plans the range [0, total). The chunk count depends only on
// total — never on worker counts — so reductions over per-chunk
// partials are reproducible across machines and parallelism levels.
func Chunks(total int) Plan {
	if total <= 0 {
		return Plan{}
	}
	c := total
	if c > MaxChunks {
		c = MaxChunks
	}
	return Plan{total: total, chunks: c}
}

// NumChunks returns how many chunks Run will execute. It is derived
// from the same partition as Bounds, so it can never over- or
// under-count the chunks that actually run.
func (p Plan) NumChunks() int { return p.chunks }

// Bounds returns the half-open item range [lo, hi) of chunk c, using
// the balanced split lo = c·total/chunks. Chunk sizes differ by at
// most one and every chunk is non-empty.
func (p Plan) Bounds(c int) (lo, hi int) {
	return c * p.total / p.chunks, (c + 1) * p.total / p.chunks
}

// Run executes fn once per chunk, on up to min(workers, NumChunks)
// goroutines. With workers ≤ 1 it runs inline on the calling
// goroutine, visiting chunks in ascending order. With workers > 1
// chunks are handed out dynamically, so fn must not assume any
// execution order — all cross-chunk state belongs in per-chunk cells
// (Scalars, Partials) or in item ranges no other chunk touches.
func (p Plan) Run(workers int, fn func(chunk, lo, hi int)) {
	if p.chunks == 0 {
		return
	}
	if workers > p.chunks {
		workers = p.chunks
	}
	if workers <= 1 {
		for c := 0; c < p.chunks; c++ {
			lo, hi := p.Bounds(c)
			fn(c, lo, hi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= p.chunks {
					return
				}
				lo, hi := p.Bounds(c)
				fn(c, lo, hi)
			}
		}()
	}
	wg.Wait()
}
