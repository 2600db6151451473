// Credit scoring: train a credit-worthiness classifier on (a) the raw
// data, (b) masked data and (c) iFair representations, and compare utility,
// individual fairness and group fairness — the Sec. V-D pipeline on the
// simulated German Credit dataset.
//
// Run with:
//
//	go run ./examples/credit
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	ds := repro.Credit(repro.ClassificationConfig{Seed: 11})
	split, err := repro.ThreeWaySplit(ds.Rows(), 1.0/3, 1.0/3, 11)
	if err != nil {
		log.Fatal(err)
	}
	train := ds.Subset(split.Train)
	test := ds.Subset(split.Test)

	// iFair-b representation learned on the training part only.
	model, err := repro.Fit(train.X, repro.Options{
		K: 10, Lambda: 1, Mu: 1,
		Protected: ds.ProtectedCols,
		Init:      repro.IFairB,
		Fairness:  repro.SampledFairness,
		Restarts:  3,
		Seed:      11,
	})
	if err != nil {
		log.Fatal(err)
	}

	neighbours := repro.NewNeighbourIndex(test.NonProtectedX()).AllNeighbors(10)

	fmt.Printf("%-12s %6s %6s %6s %8s %7s\n", "data", "Acc", "AUC", "yNN", "Parity", "EqOpp")
	report := func(name string, trainX, testX *repro.Matrix) {
		clf, err := repro.FitLogistic(trainX, train.Label, 0.01)
		if err != nil {
			log.Fatal(err)
		}
		pred := clf.PredictProba(testX)
		hard := make([]float64, len(pred))
		for i, p := range pred {
			if p >= 0.5 {
				hard[i] = 1
			}
		}
		fmt.Printf("%-12s %6.3f %6.3f %6.3f %8.3f %7.3f\n", name,
			repro.Accuracy(pred, test.Label),
			repro.AUC(pred, test.Label),
			repro.Consistency(pred, neighbours),
			repro.StatisticalParity(hard, test.Protected),
			repro.EqualOpportunity(pred, test.Label, test.Protected))
	}

	report("full", train.X, test.X)
	report("masked", train.MaskedX(), test.MaskedX())
	fairTrain, err := repro.Transform(model, train.X)
	if err != nil {
		log.Fatal(err)
	}
	fairTest, err := repro.Transform(model, test.X)
	if err != nil {
		log.Fatal(err)
	}
	report("iFair-b", fairTrain, fairTest)

	fmt.Println("\niFair trades a little utility for markedly better consistency,")
	fmt.Println("and improves group fairness without ever optimising for it.")
}
