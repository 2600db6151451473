// Hiring: the Table I scenario. An employer ranks job candidates; we show a
// query where candidates with near-identical qualifications land far apart
// under the raw score, then rank the same pool on iFair representations and
// report individual-fairness consistency for both.
//
// The protocol follows Sec. V-E: representations and scoring models are
// fitted on training queries, and all metrics are evaluated on held-out
// queries.
//
// Run with:
//
//	go run ./examples/hiring
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// Simulated Xing-like data: 57 queries × 40 candidate profiles.
	ds := repro.Xing(repro.XingWeights{Work: 1, Education: 1, Views: 1},
		repro.RankingConfig{Seed: 1})

	// Split by query: one third to fit models, the rest held out.
	qsplit, err := repro.ThreeWaySplit(len(ds.Queries), 1.0/3, 1.0/3, 1)
	if err != nil {
		log.Fatal(err)
	}
	var trainRows []int
	for _, qi := range qsplit.Train {
		trainRows = append(trainRows, ds.Queries[qi].Rows...)
	}
	train := ds.Subset(trainRows)

	model, err := repro.Fit(train.X, repro.Options{
		K: 20, Lambda: 1, Mu: 1,
		Protected:   ds.ProtectedCols,
		Init:        repro.IFairB,
		Fairness:    repro.SampledFairness,
		PairSamples: 64,
		Restarts:    2,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Score candidates with linear models trained on each representation.
	rawReg, err := repro.FitLinear(train.X, train.Score, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fairTrain, err := repro.Transform(model, train.X)
	if err != nil {
		log.Fatal(err)
	}
	fairReg, err := repro.FitLinear(fairTrain, train.Score, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fairAll, err := repro.Transform(model, ds.X)
	if err != nil {
		log.Fatal(err)
	}
	rawScores := rawReg.Predict(ds.X)
	fairScores := fairReg.Predict(fairAll)

	q := ds.Queries[qsplit.Test[0]]
	fmt.Printf("held-out query %q: top 10 by raw score vs by iFair score\n", q.Name)
	fmt.Printf("%4s | %-29s | %-29s\n", "rank", "raw ranking (work/edu, gender)", "iFair ranking (work/edu, gender)")
	rawRank := rankRows(q.Rows, rawScores)
	fairRank := rankRows(q.Rows, fairScores)
	for r := 0; r < 10; r++ {
		fmt.Printf("%4d | %-29s | %-29s\n", r+1, describe(ds, rawRank[r]), describe(ds, fairRank[r]))
	}

	// Individual fairness: consistency of scores with the 10 nearest
	// neighbours on non-protected attributes, per held-out query.
	fmt.Printf("\nmean consistency (yNN) across %d held-out queries:\n", len(qsplit.Test))
	fmt.Printf("  raw scores:   %.3f\n", meanConsistency(ds, qsplit.Test, rawScores))
	fmt.Printf("  iFair scores: %.3f\n", meanConsistency(ds, qsplit.Test, fairScores))
}

// rankRows sorts a query's candidate rows by descending score.
func rankRows(rows []int, scores []float64) []int {
	local := make([]float64, len(rows))
	for i, r := range rows {
		local[i] = scores[r]
	}
	order := repro.RankDescending(local)
	out := make([]int, len(rows))
	for i, o := range order {
		out[i] = rows[o]
	}
	return out
}

func describe(ds *repro.Dataset, row int) string {
	gender := "male"
	if ds.Protected[row] {
		gender = "female"
	}
	return fmt.Sprintf("work %+0.2f edu %+0.2f %s", ds.X.At(row, 0), ds.X.At(row, 1), gender)
}

// meanConsistency computes yNN per held-out query. Scores are normalised
// on the scale of the ground-truth deserved scores — shared by every
// method — so a representation that genuinely smooths scores measures as
// more consistent.
func meanConsistency(ds *repro.Dataset, queryIdx []int, scores []float64) float64 {
	lo, hi := ds.Score[0], ds.Score[0]
	for _, s := range ds.Score {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	var sum float64
	for _, qi := range queryIdx {
		q := ds.Queries[qi]
		sub := ds.Subset(q.Rows)
		norm := make([]float64, len(q.Rows))
		for i, r := range q.Rows {
			norm[i] = (scores[r] - lo) / (hi - lo)
		}
		neighbours := repro.NewNeighbourIndex(sub.NonProtectedX()).AllNeighbors(10)
		sum += repro.Consistency(norm, neighbours)
	}
	return sum / float64(len(queryIdx))
}
