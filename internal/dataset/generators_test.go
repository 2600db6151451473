package dataset

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/stats"
)

// correlation returns the Pearson correlation of xs and ys, or 0 if
// either sample is constant.
func correlation(xs, ys []float64) float64 {
	sx, sy := stats.StdDev(xs), stats.StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)) / (sx * sy)
}

func TestSyntheticMixtureVariants(t *testing.T) {
	for _, v := range []MixtureVariant{VariantRandom, VariantCorrelatedX1, VariantCorrelatedX2} {
		ds := SyntheticMixture(v, 100, 1)
		if ds.Rows() != 100 || ds.Cols() != 3 {
			t.Fatalf("%v: dims %d×%d, want 100×3", v, ds.Rows(), ds.Cols())
		}
		if len(ds.ProtectedCols) != 1 || ds.ProtectedCols[0] != 2 {
			t.Fatalf("%v: protected cols %v", v, ds.ProtectedCols)
		}
	}
}

func TestSyntheticMixtureSharedNonSensitiveValues(t *testing.T) {
	// The paper's three variants share X1, X2 and Y for a given seed and
	// differ only on A.
	a := SyntheticMixture(VariantRandom, 100, 5)
	b := SyntheticMixture(VariantCorrelatedX1, 100, 5)
	// Compare pre-standardisation structure via labels (deterministic
	// from the shared mixture draw).
	for i := range a.Label {
		if a.Label[i] != b.Label[i] {
			t.Fatal("variants must share outcome labels for the same seed")
		}
	}
}

func TestSyntheticMixtureCorrelatedVariantMatchesRule(t *testing.T) {
	// In the X1 variant, protected must be a threshold function of the
	// (standardised) X1 column: all protected X1 values below all
	// unprotected ones.
	ds := SyntheticMixture(VariantCorrelatedX1, 200, 3)
	maxProt, minUnprot := math.Inf(-1), math.Inf(1)
	for i := 0; i < ds.Rows(); i++ {
		v := ds.X.At(i, 0)
		if ds.Protected[i] {
			maxProt = math.Max(maxProt, v)
		} else {
			minUnprot = math.Min(minUnprot, v)
		}
	}
	if maxProt >= minUnprot {
		t.Fatalf("X1 threshold rule violated: max protected %v ≥ min unprotected %v", maxProt, minUnprot)
	}
}

func TestSyntheticMixtureDeterministic(t *testing.T) {
	a := SyntheticMixture(VariantRandom, 50, 9)
	b := SyntheticMixture(VariantRandom, 50, 9)
	if !mat.Equalish(a.X, b.X, 0) {
		t.Fatal("same seed must reproduce identical data")
	}
}

func TestCompasBaseRates(t *testing.T) {
	ds := Compas(ClassificationConfig{Records: 2000, Seed: 1})
	p, u := ds.BaseRates()
	if math.Abs(p-0.52) > 0.02 {
		t.Fatalf("protected base rate = %v, want ≈0.52", p)
	}
	if math.Abs(u-0.40) > 0.02 {
		t.Fatalf("unprotected base rate = %v, want ≈0.40", u)
	}
}

func TestCensusBaseRates(t *testing.T) {
	ds := Census(ClassificationConfig{Records: 3000, Seed: 1})
	p, u := ds.BaseRates()
	if math.Abs(p-0.12) > 0.02 || math.Abs(u-0.31) > 0.02 {
		t.Fatalf("base rates = %v/%v, want ≈0.12/0.31", p, u)
	}
}

func TestCreditBaseRates(t *testing.T) {
	ds := Credit(ClassificationConfig{Seed: 1})
	if ds.Rows() != 1000 {
		t.Fatalf("rows = %d, want 1000 (as in the original dataset)", ds.Rows())
	}
	p, u := ds.BaseRates()
	if math.Abs(p-0.67) > 0.03 || math.Abs(u-0.72) > 0.03 {
		t.Fatalf("base rates = %v/%v, want ≈0.67/0.72", p, u)
	}
}

func TestClassificationProtectedLeaksThroughFeatures(t *testing.T) {
	// The adversarial experiment (Fig. 4) requires that masking the
	// protected column leaves correlated signal. Verify a non-protected
	// column correlates with group membership.
	for _, ds := range []*Dataset{
		Compas(ClassificationConfig{Records: 1500, Seed: 2}),
		Census(ClassificationConfig{Records: 1500, Seed: 2}),
		Credit(ClassificationConfig{Seed: 2}),
	} {
		prot := make([]float64, ds.Rows())
		for i, p := range ds.Protected {
			if p {
				prot[i] = 1
			}
		}
		var maxCorr float64
		for _, j := range ds.NonProtectedCols() {
			c := math.Abs(correlation(ds.X.Col(j), prot))
			maxCorr = math.Max(maxCorr, c)
		}
		if maxCorr < 0.1 {
			t.Fatalf("%s: no feature leaks the protected attribute (max |corr| = %v)", ds.Name, maxCorr)
		}
	}
}

func TestProtectedColumnMatchesFlags(t *testing.T) {
	// The encoded protected column must be a deterministic function of
	// the Protected flags (standardised 0/1).
	ds := Compas(ClassificationConfig{Records: 500, Seed: 3})
	col := ds.ProtectedCols[0]
	var protVal, unprotVal float64
	protSet, unprotSet := false, false
	for i, p := range ds.Protected {
		v := ds.X.At(i, col)
		if p {
			if protSet && v != protVal {
				t.Fatal("protected column not constant within group")
			}
			protVal, protSet = v, true
		} else {
			if unprotSet && v != unprotVal {
				t.Fatal("protected column not constant within group")
			}
			unprotVal, unprotSet = v, true
		}
	}
	if protVal <= unprotVal {
		t.Fatal("protected level should encode higher than unprotected")
	}
}

func TestXingStructure(t *testing.T) {
	ds := Xing(UniformXingWeights, RankingConfig{Seed: 1})
	if len(ds.Queries) != 57 {
		t.Fatalf("queries = %d, want 57", len(ds.Queries))
	}
	if ds.Rows() != 57*40 {
		t.Fatalf("rows = %d, want 2280", ds.Rows())
	}
	if ds.Task != Ranking || ds.Score == nil || ds.Label != nil {
		t.Fatal("xing must be a ranking dataset with scores")
	}
	seen := make(map[int]bool)
	for _, q := range ds.Queries {
		if len(q.Rows) != 40 {
			t.Fatalf("query %s has %d candidates, want 40", q.Name, len(q.Rows))
		}
		for _, r := range q.Rows {
			if seen[r] {
				t.Fatal("queries must not share records")
			}
			seen[r] = true
		}
	}
}

func TestXingWeightsAffectScores(t *testing.T) {
	a := Xing(XingWeights{Work: 1, Education: 0, Views: 0}, RankingConfig{Seed: 4})
	b := Xing(XingWeights{Work: 0, Education: 1, Views: 0}, RankingConfig{Seed: 4})
	diff := false
	for i := range a.Score {
		if math.Abs(a.Score[i]-b.Score[i]) > 1e-9 {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different weights must change scores")
	}
	// Same seed must keep features identical.
	if !mat.Equalish(a.X, b.X, 0) {
		t.Fatal("weights must not affect features")
	}
}

func TestAirbnbStructure(t *testing.T) {
	ds := Airbnb(RankingConfig{Seed: 1})
	if len(ds.Queries) != 43 {
		t.Fatalf("queries = %d, want 43", len(ds.Queries))
	}
	for _, q := range ds.Queries {
		if len(q.Rows) < 10 {
			t.Fatalf("query %s has %d listings, want ≥ 10", q.Name, len(q.Rows))
		}
	}
	if ds.Task != Ranking {
		t.Fatal("airbnb must be a ranking dataset")
	}
}

func TestMaskedXZeroesProtected(t *testing.T) {
	ds := Credit(ClassificationConfig{Seed: 5})
	masked := ds.MaskedX()
	for i := 0; i < masked.Rows(); i++ {
		for _, c := range ds.ProtectedCols {
			if masked.At(i, c) != 0 {
				t.Fatal("masked matrix must zero protected columns")
			}
		}
	}
	// Original must be untouched.
	anyNonZero := false
	for i := 0; i < ds.Rows(); i++ {
		if ds.X.At(i, ds.ProtectedCols[0]) != 0 {
			anyNonZero = true
			break
		}
	}
	if !anyNonZero {
		t.Fatal("MaskedX must not mutate the original")
	}
}

func TestNonProtectedXDims(t *testing.T) {
	ds := Compas(ClassificationConfig{Records: 100, Seed: 6})
	np := ds.NonProtectedX()
	if np.Cols() != ds.Cols()-len(ds.ProtectedCols) {
		t.Fatalf("NonProtectedX cols = %d", np.Cols())
	}
	if np.Rows() != ds.Rows() {
		t.Fatal("row count must be preserved")
	}
}

func TestSubsetRemapsEverything(t *testing.T) {
	ds := Xing(UniformXingWeights, RankingConfig{Seed: 7})
	// Take the first two queries' rows.
	idx := append(append([]int(nil), ds.Queries[0].Rows...), ds.Queries[1].Rows...)
	sub := ds.Subset(idx)
	if sub.Rows() != 2*xingCandidates {
		t.Fatalf("subset rows = %d, want %d", sub.Rows(), 2*xingCandidates)
	}
	if len(sub.Queries) != 2 {
		t.Fatalf("subset queries = %d, want 2 (partial queries dropped)", len(sub.Queries))
	}
	for _, q := range sub.Queries {
		for _, r := range q.Rows {
			if r < 0 || r >= sub.Rows() {
				t.Fatal("query rows not remapped")
			}
		}
	}
	// Scores and protected flags must follow.
	for newI, oldI := range idx {
		if sub.Score[newI] != ds.Score[oldI] || sub.Protected[newI] != ds.Protected[oldI] {
			t.Fatal("subset metadata mismatch")
		}
	}
}

func TestSubsetClassification(t *testing.T) {
	ds := Credit(ClassificationConfig{Seed: 8})
	sub := ds.Subset([]int{0, 5, 10})
	if sub.Rows() != 3 || len(sub.Label) != 3 {
		t.Fatal("classification subset wrong shape")
	}
	if sub.Label[1] != ds.Label[5] {
		t.Fatal("labels not remapped")
	}
}

func TestSummaryStats(t *testing.T) {
	ds := Compas(ClassificationConfig{Records: 800, Seed: 9})
	s := ds.Summary()
	if s.Records != 800 || s.Dims != ds.Cols() || s.Name != "compas" {
		t.Fatalf("summary = %+v", s)
	}
	if s.BaseRateProtected <= s.BaseRateUnprotected {
		t.Fatal("compas protected base rate should exceed unprotected")
	}
	rs := Airbnb(RankingConfig{Seed: 9}).Summary()
	if rs.QueryCount != 43 {
		t.Fatalf("airbnb summary queries = %d", rs.QueryCount)
	}
}

func TestBaseRatesPanicsForRanking(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Airbnb(RankingConfig{Seed: 1}).BaseRates()
}

func TestVariantString(t *testing.T) {
	if VariantRandom.String() != "random" || VariantCorrelatedX1.String() != "X1<=3" ||
		VariantCorrelatedX2.String() != "X2<=3" || MixtureVariant(9).String() != "unknown" {
		t.Fatal("variant strings wrong")
	}
}
