package linmodel

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/metrics"
)

// rankingData builds queries whose true score is a linear function of the
// features.
func rankingData(rng *rand.Rand, nQueries, perQuery int) (*mat.Dense, []float64, [][]int) {
	m := nQueries * perQuery
	x := mat.NewDense(m, 3)
	y := make([]float64, m)
	queries := make([][]int, nQueries)
	for q := 0; q < nQueries; q++ {
		rows := make([]int, perQuery)
		for c := 0; c < perQuery; c++ {
			i := q*perQuery + c
			a, b, cc := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			x.Set(i, 0, a)
			x.Set(i, 1, b)
			x.Set(i, 2, cc)
			y[i] = 2*a + b - 0.5*cc
			rows[c] = i
		}
		queries[q] = rows
	}
	return x, y, queries
}

func TestPairwiseRankerRecoversOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y, queries := rankingData(rng, 10, 20)
	model, err := FitPairwiseRanker(x, y, queries, RankerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pred := model.Predict(x)
	// Within every query the predicted order should track the truth.
	for _, q := range queries {
		localPred := make([]float64, len(q))
		localTruth := make([]float64, len(q))
		for i, r := range q {
			localPred[i] = pred[r]
			localTruth[i] = y[r]
		}
		if tau := metrics.KendallTau(localPred, localTruth); tau < 0.95 {
			t.Fatalf("Kendall tau = %v, want ≥ 0.95", tau)
		}
	}
}

func TestPairwiseRankerPairCap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// 30 candidates give up to 435 pairs per query, over the cap of
	// maxPairsPerQuery; the capped sample must still train without error.
	x, y, queries := rankingData(rng, 2, 30)
	model, err := FitPairwiseRanker(x, y, queries, RankerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Weights) != 4 {
		t.Fatalf("weights = %d, want 4", len(model.Weights))
	}
}

func TestPairwiseRankerAllTied(t *testing.T) {
	x := mat.FromRows([][]float64{{1}, {2}, {3}})
	y := []float64{5, 5, 5}
	if _, err := FitPairwiseRanker(x, y, [][]int{{0, 1, 2}}, RankerOptions{}); err == nil {
		t.Fatal("expected error when every score is tied")
	}
}

func TestPairwiseRankerNoQueries(t *testing.T) {
	x := mat.FromRows([][]float64{{1}, {2}})
	if _, err := FitPairwiseRanker(x, []float64{1, 2}, nil, RankerOptions{}); err == nil {
		t.Fatal("expected error without queries")
	}
}

func TestPairwiseRankerEmptyData(t *testing.T) {
	if _, err := FitPairwiseRanker(mat.NewDense(0, 0), nil, nil, RankerOptions{}); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestPairwiseRankerPredictMismatchPanics(t *testing.T) {
	model := &PairwiseRanker{Weights: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	model.Predict(mat.NewDense(1, 5))
}

func TestLog1pExpStable(t *testing.T) {
	cases := []float64{-100, -35, -1, 0, 1, 35, 100}
	for _, z := range cases {
		v := log1pExp(z)
		if v < 0 {
			t.Fatalf("log1pExp(%v) = %v < 0", z, v)
		}
		if z > 0 && v < z {
			t.Fatalf("log1pExp(%v) = %v below asymptote", z, v)
		}
	}
}
