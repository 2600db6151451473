package par

// Scalars holds one partial scalar per chunk of a Plan — typically a
// per-chunk loss. Cells are assigned (not accumulated) by chunk index,
// and the slice has exactly NumChunks cells, so a cell can never carry
// a stale value from an earlier evaluation with a different total: a
// buffer sized for one plan cannot be summed under another.
type Scalars []float64

// NewScalars returns a partial-scalar buffer with one cell per chunk.
func (p Plan) NewScalars() Scalars { return make(Scalars, p.chunks) }

// Sum reduces the cells in ascending chunk order. Because both the
// cell count and the reduction order are fixed by the plan, the result
// is bit-identical for every worker count.
func (s Scalars) Sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// Partials holds per-chunk accumulation buffers for a flat float64
// gradient (a vector, or a matrix viewed through Dense.Data). Chunk 0
// accumulates straight into the caller's destination slice; chunks
// 1..NumChunks-1 get private buffers that ReduceInto folds into the
// destination in ascending chunk order, making the combined result
// bit-identical for every worker count.
//
// Usage per evaluation: Reset, then hand Buf(chunk, dst) to each chunk
// as its accumulation target inside Plan.Run, then ReduceInto(dst).
type Partials struct {
	bufs [][]float64 // chunks 1..n-1; chunk 0 writes into dst directly
}

// NewPartials returns partial buffers of the given element count for
// every chunk of the plan beyond the first.
func (p Plan) NewPartials(size int) *Partials {
	n := p.chunks - 1
	if n < 0 {
		n = 0
	}
	pt := &Partials{bufs: make([][]float64, n)}
	for i := range pt.bufs {
		pt.bufs[i] = make([]float64, size, size+linePad)
	}
	return pt
}

// linePad is one 64-byte cache line of float64s. Each private buffer
// is allocated with that much spare capacity so that chunks running
// concurrently never accumulate into the same cache line: small
// partials, such as an N-element gradient, would otherwise pack several
// chunks' buffers into one line and make every accumulation a
// cross-core miss.
const linePad = 8

// Reset zeroes every private buffer. The chunk-0 destination is the
// caller's and is left untouched.
func (pt *Partials) Reset() {
	for _, b := range pt.bufs {
		clear(b)
	}
}

// Buf returns the accumulation target of the given chunk: dst itself
// for chunk 0, a private partial buffer otherwise. Distinct chunks
// return distinct memory, so concurrent accumulation is race-free.
func (pt *Partials) Buf(chunk int, dst []float64) []float64 {
	if chunk == 0 {
		return dst
	}
	return pt.bufs[chunk-1]
}

// ReduceInto folds the private buffers into dst in ascending chunk
// order (chunk 0 already accumulated in place).
func (pt *Partials) ReduceInto(dst []float64) {
	for _, b := range pt.bufs {
		for i, v := range b {
			dst[i] += v
		}
	}
}
