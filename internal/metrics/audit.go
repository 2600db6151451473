package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mat"
)

// AuditResult summarises an empirical audit of Definition 1 of the paper:
// for record pairs (i, j), the violation is
//
//	|d(φ(x_i), φ(x_j)) − d(x*_i, x*_j)|
//
// — how far the transformation strays from exactly preserving
// task-relevant distances. The smallest ε for which a mapping is
// "individually fair" in the paper's sense is exactly MaxViolation.
type AuditResult struct {
	MeanViolation float64
	MaxViolation  float64 // the ε of Definition 1
	P50, P90, P99 float64 // violation percentiles
}

// LipschitzAudit measures distance preservation between the original
// records (restricted to non-protected attributes — the x* view) and their
// transformed representations, over the given pairs. Distances are
// Euclidean. If pairs is nil, all pairs are audited.
func LipschitzAudit(original, transformed *mat.Dense, pairs [][2]int) AuditResult {
	m, _ := original.Dims()
	mt, _ := transformed.Dims()
	if m != mt {
		panic(fmt.Sprintf("metrics: audit row mismatch %d vs %d", m, mt))
	}
	if pairs == nil {
		pairs = AllPairs(m)
	}
	if len(pairs) == 0 {
		return AuditResult{}
	}
	violations := make([]float64, 0, len(pairs))
	var sum, max float64
	for _, p := range pairs {
		i, j := p[0], p[1]
		dOrig := math.Sqrt(mat.SqDist(original.Row(i), original.Row(j)))
		dTrans := math.Sqrt(mat.SqDist(transformed.Row(i), transformed.Row(j)))
		v := math.Abs(dTrans - dOrig)
		violations = append(violations, v)
		sum += v
		if v > max {
			max = v
		}
	}
	sort.Float64s(violations)
	return AuditResult{
		MeanViolation: sum / float64(len(pairs)),
		MaxViolation:  max,
		P50:           percentile(violations, 0.50),
		P90:           percentile(violations, 0.90),
		P99:           percentile(violations, 0.99),
	}
}

// percentile returns the q-quantile of sorted ascending values using the
// nearest-rank method.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// AllPairs enumerates every unordered pair over m records.
func AllPairs(m int) [][2]int {
	out := make([][2]int, 0, m*(m-1)/2)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// SamplePairs draws n random unordered pairs over m records (with
// replacement across pairs, never pairing a record with itself). It
// returns nil when m < 2.
func SamplePairs(m, n int, rng *rand.Rand) [][2]int {
	if m < 2 || n <= 0 {
		return nil
	}
	out := make([][2]int, 0, n)
	for len(out) < n {
		i := rng.Intn(m)
		j := rng.Intn(m)
		if i == j {
			continue
		}
		out = append(out, [2]int{i, j})
	}
	return out
}
