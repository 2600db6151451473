package par

import (
	"math"
	"os"
	"sync"
	"testing"
)

// sweepWorkers returns the worker counts the invariance tests exercise.
// IFAIR_TEST_WORKER_SWEEP=1 (set by `make test-workers`) widens the
// sweep to every count in [1, 17] plus oversubscribed values.
func sweepWorkers() []int {
	if os.Getenv("IFAIR_TEST_WORKER_SWEEP") != "" {
		w := make([]int, 0, 20)
		for i := 1; i <= 17; i++ {
			w = append(w, i)
		}
		return append(w, 31, 32, 64)
	}
	return []int{1, 2, 3, 5, 8, 16, 17}
}

func TestChunksPlanInvariants(t *testing.T) {
	for total := 0; total <= 300; total++ {
		p := Chunks(total)
		wantChunks := total
		if wantChunks > MaxChunks {
			wantChunks = MaxChunks
		}
		if p.NumChunks() != wantChunks {
			t.Fatalf("Chunks(%d).NumChunks() = %d, want %d", total, p.NumChunks(), wantChunks)
		}
		if p.total != max(total, 0) {
			t.Fatalf("Chunks(%d).total = %d", total, p.total)
		}
		prev := 0
		for c := 0; c < p.NumChunks(); c++ {
			lo, hi := p.Bounds(c)
			if lo != prev {
				t.Fatalf("total=%d chunk %d: lo = %d, want %d (gap or overlap)", total, c, lo, prev)
			}
			if hi <= lo {
				t.Fatalf("total=%d chunk %d: empty range [%d, %d)", total, c, lo, hi)
			}
			prev = hi
		}
		if p.NumChunks() > 0 && prev != total {
			t.Fatalf("total=%d: chunks end at %d, want %d", total, prev, total)
		}
	}
}

// TestRunExecutesEveryChunkOnce is the accounting invariant that the
// old per-package runChunks/numChunks pair violated: the number of
// chunks the plan reports must equal the number of fn invocations, for
// every (total, workers) combination, and together they must cover
// every item exactly once.
func TestRunExecutesEveryChunkOnce(t *testing.T) {
	for _, total := range []int{0, 1, 2, 3, 7, 31, 32, 33, 100, 257} {
		for _, workers := range append(sweepWorkers(), 0, -3) {
			p := Chunks(total)
			covered := make([]int, total)
			seen := make([]int, p.NumChunks())
			var mu sync.Mutex
			p.Run(workers, func(chunk, lo, hi int) {
				wantLo, wantHi := p.Bounds(chunk)
				if lo != wantLo || hi != wantHi {
					t.Errorf("total=%d workers=%d chunk %d: bounds (%d,%d) != Bounds (%d,%d)",
						total, workers, chunk, lo, hi, wantLo, wantHi)
				}
				mu.Lock()
				seen[chunk]++
				for i := lo; i < hi; i++ {
					covered[i]++
				}
				mu.Unlock()
			})
			for c, n := range seen {
				if n != 1 {
					t.Fatalf("total=%d workers=%d: chunk %d ran %d times", total, workers, c, n)
				}
			}
			for i, n := range covered {
				if n != 1 {
					t.Fatalf("total=%d workers=%d: item %d covered %d times", total, workers, i, n)
				}
			}
		}
	}
}

func TestRunInlineVisitsChunksInOrder(t *testing.T) {
	p := Chunks(100)
	last := -1
	p.Run(1, func(chunk, lo, hi int) {
		if chunk != last+1 {
			t.Fatalf("inline chunk order: got %d after %d", chunk, last)
		}
		last = chunk
	})
	if last != p.NumChunks()-1 {
		t.Fatalf("ran %d chunks, want %d", last+1, p.NumChunks())
	}
}

// TestScalarReductionWorkerInvariant is the package-level determinism
// property: a chunked sum-reduction is bit-identical for every worker
// count, because cell count and reduction order come from the plan
// alone.
func TestScalarReductionWorkerInvariant(t *testing.T) {
	for _, total := range []int{0, 1, 5, 63, 64, 1000} {
		vals := make([]float64, total)
		for i := range vals {
			// Spread magnitudes so reordering would actually change bits.
			vals[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%17)-8)
		}
		p := Chunks(total)
		sum := func(workers int) uint64 {
			part := p.NewScalars()
			p.Run(workers, func(chunk, lo, hi int) {
				var s float64
				for i := lo; i < hi; i++ {
					s += vals[i]
				}
				part[chunk] = s
			})
			return math.Float64bits(part.Sum())
		}
		want := sum(1)
		for _, w := range sweepWorkers() {
			if got := sum(w); got != want {
				t.Fatalf("total=%d workers=%d: sum bits %#x != sequential %#x", total, w, got, want)
			}
		}
	}
}

func TestPartialsReduceWorkerInvariant(t *testing.T) {
	const total, size = 257, 9
	p := Chunks(total)
	eval := func(workers int) []float64 {
		dst := make([]float64, size)
		part := p.NewPartials(size)
		part.Reset()
		p.Run(workers, func(chunk, lo, hi int) {
			buf := part.Buf(chunk, dst)
			for i := lo; i < hi; i++ {
				buf[i%size] += math.Cos(float64(i)) * math.Pow(2, float64(i%31)-15)
			}
		})
		part.ReduceInto(dst)
		return dst
	}
	want := eval(1)
	for _, w := range sweepWorkers() {
		got := eval(w)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: dst[%d] = %v != sequential %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestPartialsBufDistinct(t *testing.T) {
	p := Chunks(100)
	dst := make([]float64, 4)
	part := p.NewPartials(4)
	seen := map[*float64]bool{}
	for c := 0; c < p.NumChunks(); c++ {
		buf := part.Buf(c, dst)
		if len(buf) != 4 {
			t.Fatalf("chunk %d: len %d", c, len(buf))
		}
		if seen[&buf[0]] {
			t.Fatalf("chunk %d shares a buffer with an earlier chunk", c)
		}
		seen[&buf[0]] = true
	}
	if !seen[&dst[0]] {
		t.Fatal("chunk 0 must accumulate into dst directly")
	}
}

func TestScalarsSizedExactlyToPlan(t *testing.T) {
	// The historical bug: a buffer sized by one (total, workers) pair was
	// summed under another total, picking up stale cells. Scalars makes
	// that impossible — the buffer length is the chunk count.
	a := Chunks(100)
	b := Chunks(7)
	if len(a.NewScalars()) != a.NumChunks() || len(b.NewScalars()) != b.NumChunks() {
		t.Fatal("Scalars length must equal the plan's chunk count")
	}
	if a.NumChunks() == b.NumChunks() {
		t.Skip("totals chosen to differ in chunk count")
	}
}
