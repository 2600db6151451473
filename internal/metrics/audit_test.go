package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestLipschitzAuditIdentityIsPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.NewDense(10, 3)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	res := LipschitzAudit(x, x, nil)
	if res.MaxViolation != 0 || res.MeanViolation != 0 {
		t.Fatalf("identity audit = %+v, want all-zero violations", res)
	}
	// A nil pair list audits all 45 pairs.
	all := AllPairs(10)
	doubled := x.Clone()
	for i := range doubled.Data() {
		doubled.Data()[i] *= 2
	}
	if len(all) != 45 || LipschitzAudit(x, doubled, nil) != LipschitzAudit(x, doubled, all) {
		t.Fatalf("nil pairs audited differently from all %d pairs", len(all))
	}
}

func TestLipschitzAuditKnownViolation(t *testing.T) {
	// Two points at distance 1 originally, 3 after transformation.
	orig := mat.FromRows([][]float64{{0}, {1}})
	trans := mat.FromRows([][]float64{{0}, {3}})
	res := LipschitzAudit(orig, trans, nil)
	if math.Abs(res.MaxViolation-2) > 1e-12 {
		t.Fatalf("max violation = %v, want 2", res.MaxViolation)
	}
	if math.Abs(res.MeanViolation-2) > 1e-12 {
		t.Fatalf("mean violation = %v, want 2", res.MeanViolation)
	}
}

func TestLipschitzAuditScaling(t *testing.T) {
	// Doubling all coordinates makes each violation equal the original
	// distance.
	orig := mat.FromRows([][]float64{{0, 0}, {3, 4}, {6, 8}})
	trans := mat.FromRows([][]float64{{0, 0}, {6, 8}, {12, 16}})
	res := LipschitzAudit(orig, trans, nil)
	// Distances: 5, 10, 5 → violations 5, 10, 5.
	if math.Abs(res.MaxViolation-10) > 1e-12 {
		t.Fatalf("max = %v, want 10", res.MaxViolation)
	}
	if math.Abs(res.P50-5) > 1e-12 {
		t.Fatalf("p50 = %v, want 5", res.P50)
	}
}

func TestLipschitzAuditRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LipschitzAudit(mat.NewDense(2, 1), mat.NewDense(3, 1), nil)
}

func TestLipschitzAuditEmptyPairs(t *testing.T) {
	res := LipschitzAudit(mat.NewDense(1, 1), mat.NewDense(1, 1), nil)
	if res != (AuditResult{}) {
		t.Fatalf("audit of no pairs = %+v, want the zero result", res)
	}
}

// Property: percentiles are ordered and bounded by the max.
func TestLipschitzAuditPercentileOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 12
		orig := mat.NewDense(m, 3)
		trans := mat.NewDense(m, 3)
		for i := range orig.Data() {
			orig.Data()[i] = rng.NormFloat64()
			trans.Data()[i] = rng.NormFloat64()
		}
		res := LipschitzAudit(orig, trans, nil)
		return res.P50 <= res.P90+1e-12 &&
			res.P90 <= res.P99+1e-12 &&
			res.P99 <= res.MaxViolation+1e-12 &&
			res.MeanViolation <= res.MaxViolation+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAllPairsCount(t *testing.T) {
	if got := len(AllPairs(5)); got != 10 {
		t.Fatalf("pairs = %d, want 10", got)
	}
	if got := AllPairs(1); len(got) != 0 {
		t.Fatalf("pairs of 1 record = %v", got)
	}
}

func TestSamplePairsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pairs := SamplePairs(10, 100, rng)
	if len(pairs) != 100 {
		t.Fatalf("len = %d, want 100", len(pairs))
	}
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Fatal("self-pair sampled")
		}
		if p[0] < 0 || p[0] >= 10 || p[1] < 0 || p[1] >= 10 {
			t.Fatal("pair index out of range")
		}
	}
	if SamplePairs(1, 5, rng) != nil {
		t.Fatal("m<2 must return nil")
	}
	if SamplePairs(5, 0, rng) != nil {
		t.Fatal("n=0 must return nil")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	if got := percentile(sorted, 0.5); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := percentile(sorted, 1.0); got != 4 {
		t.Fatalf("p100 = %v, want 4", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
}
