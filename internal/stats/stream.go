package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford is a streaming mean/variance accumulator using Welford's online
// update, with the Chan et al. parallel rule for merging two accumulators.
// It summarises an unbounded stream in O(1) memory, which is what the
// serving-side drift monitor needs: per-feature population statistics over
// live traffic without retaining the traffic.
//
// The zero value is ready to use. Fields are exported so a baseline
// profile can round-trip through JSON; mutate them only through Add/Merge.
type Welford struct {
	// N is the number of observations.
	N int64 `json:"n"`
	// M is the running mean.
	M float64 `json:"mean"`
	// S is the sum of squared deviations from the mean (M2 in the
	// literature); Variance derives from it.
	S float64 `json:"s"`
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.N++
	d := x - w.M
	w.M += d / float64(w.N)
	w.S += d * (x - w.M)
}

// Mean returns the running mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.M }

// Variance returns the population variance, or 0 when N < 2 — matching
// the batch Variance helper's convention.
func (w *Welford) Variance() float64 {
	if w.N < 2 {
		return 0
	}
	return w.S / float64(w.N)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// psiFloor is the proportion floor used by PSI: empty bins would make the
// log-ratio infinite, so both distributions are floored at this value (a
// standard PSI convention).
const psiFloor = 1e-4

// PSI returns the population stability index between an expected and an
// actual binned distribution:
//
//	PSI = Σ_i (a_i − e_i) · ln(a_i / e_i)
//
// with both proportion vectors floored at 1e-4 (so empty bins contribute
// a large finite term instead of ±Inf). Every term is non-negative —
// sign(a−e) = sign(ln(a/e)) — so PSI ≥ 0, with equality iff the floored
// distributions match. The usual operating bands: < 0.1 stable, 0.1–0.25
// drifting, > 0.25 alarm.
//
// The slices must have equal length; proportions need not sum to exactly
// 1 (each vector is renormalised first).
func PSI(expected, actual []float64) float64 {
	if len(expected) != len(actual) {
		panic(fmt.Sprintf("stats: PSI length mismatch %d vs %d", len(expected), len(actual)))
	}
	if len(expected) == 0 {
		return 0
	}
	var se, sa float64
	for i := range expected {
		se += expected[i]
		sa += actual[i]
	}
	var psi float64
	for i := range expected {
		e, a := psiFloor, psiFloor
		if se > 0 && expected[i]/se > psiFloor {
			e = expected[i] / se
		}
		if sa > 0 && actual[i]/sa > psiFloor {
			a = actual[i] / sa
		}
		psi += (a - e) * math.Log(a/e)
	}
	return psi
}

// QuantileEdges returns bins−1 interior bin edges placed at the empirical
// quantiles of xs, so the returned binning gives roughly equal expected
// mass per bin — the layout PSI is most sensitive under. Degenerate
// samples (constant xs, bins ≤ 1) yield fewer (possibly zero) distinct
// edges; Proportions handles any edge count.
func QuantileEdges(xs []float64, bins int) []float64 {
	if bins <= 1 || len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	edges := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		q := float64(b) / float64(bins)
		idx := int(q * float64(len(sorted)-1))
		e := sorted[idx]
		if len(edges) > 0 && e <= edges[len(edges)-1] {
			continue // duplicate quantile under ties; drop the empty bin
		}
		edges = append(edges, e)
	}
	return edges
}

// Proportions bins xs against interior edges (ascending) and returns the
// fraction of samples per bin — len(edges)+1 values. Bin i holds samples
// with edges[i−1] < x ≤ edges[i]; values above the last edge land in the
// final bin. An empty sample returns all-zero proportions.
func Proportions(xs []float64, edges []float64) []float64 {
	props := make([]float64, len(edges)+1)
	if len(xs) == 0 {
		return props
	}
	for _, x := range xs {
		idx := sort.SearchFloat64s(edges, x) // first edge ≥ x
		props[idx]++
	}
	for i := range props {
		props[i] /= float64(len(xs))
	}
	return props
}
