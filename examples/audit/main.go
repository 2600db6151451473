// Audit: measure how individually fair a deployed transformation actually
// is. The paper's Definition 1 calls a mapping individually fair when
// transformed pairwise distances track the original non-protected
// distances within some ε — this example estimates that ε empirically for
// three candidate representations and inspects what the fitted iFair
// distance function pays attention to.
//
// Run with:
//
//	go run ./examples/audit
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	ds := repro.Census(repro.ClassificationConfig{Records: 800, Seed: 31})

	// Candidate 1: iFair-b representation.
	ifairModel, err := repro.Fit(ds.X, repro.Options{
		K: 10, Lambda: 1, Mu: 1,
		Protected: ds.ProtectedCols,
		Init:      repro.IFairB,
		Fairness:  repro.SampledFairness,
		Seed:      31,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Candidate 2: the censored projection from the paper's Related Work.
	censored, err := repro.FitCensored(ds.X, ds.Protected, repro.CensoredOptions{})
	if err != nil {
		log.Fatal(err)
	}

	reference := ds.NonProtectedX()
	fmt.Printf("Definition-1 audit on %q (%d records):\n", ds.Name, ds.Rows())
	fmt.Printf("%-10s %8s %8s %8s %10s\n", "method", "mean", "p50", "p99", "eps (max)")
	report := func(name string, transformed *repro.Matrix) {
		a := repro.LipschitzAudit(reference, transformed, nil)
		fmt.Printf("%-10s %8.3f %8.3f %8.3f %10.3f\n", name, a.MeanViolation, a.P50, a.P99, a.MaxViolation)
	}
	fairX, err := repro.Transform(ifairModel, ds.X)
	if err != nil {
		log.Fatal(err)
	}
	censoredX := repro.NewMatrix(ds.Rows(), ds.Cols())
	if err := censored.TransformInto(censoredX, ds.X, 1); err != nil {
		log.Fatal(err)
	}
	report("masked", ds.MaskedX())
	report("iFair-b", fairX)
	report("censored", censoredX)

	fmt.Println("\nlearned iFair attribute weights (top 5 and bottom 3):")
	ws := ifairModel.AttributeWeights(ds.FeatureNames)
	for _, w := range ws[:5] {
		fmt.Printf("  %-28s %.4f\n", w.Name, w.Weight)
	}
	fmt.Println("  ...")
	for _, w := range ws[len(ws)-3:] {
		fmt.Printf("  %-28s %.4f\n", w.Name, w.Weight)
	}
	for rank, w := range ws {
		if w.Index == ds.ProtectedCols[0] {
			fmt.Printf("\nprotected attribute %q ranks %d of %d (weight %.4f).\n",
				w.Name, rank+1, len(ws), w.Weight)
		}
	}
	fmt.Println("A protected attribute climbing into the top weights would be a")
	fmt.Println("red flag; with iFair-b initialisation it stays near the bottom.")
}
