package repro_test

import (
	"fmt"
	"log"

	"repro"
)

// ExampleFit learns a representation of six records in which pairs differ
// only on the protected third attribute, and shows that the transformation
// preserves the data shape.
func ExampleFit() {
	x := repro.MatrixFromRows([][]float64{
		{-1.2, -1.0, 0}, {-1.2, -1.0, 1},
		{0.0, 0.1, 0}, {0.0, 0.1, 1},
		{1.2, 1.0, 0}, {1.2, 1.0, 1},
	})
	model, err := repro.Fit(x, repro.Options{
		K: 3, Lambda: 1, Mu: 10,
		Protected: []int{2},
		Init:      repro.IFairB,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fair, err := repro.Transform(model, x)
	if err != nil {
		log.Fatal(err)
	}
	rows, cols := fair.Dims()
	fmt.Printf("transformed %d records with %d attributes using %d prototypes\n",
		rows, cols, model.K())
	// Output:
	// transformed 6 records with 3 attributes using 3 prototypes
}

// ExampleFairReRank enforces a protected-share constraint on a ranking.
func ExampleFairReRank() {
	scores := []float64{0.9, 0.8, 0.7, 0.3, 0.2}
	protected := []bool{false, false, false, true, true}
	result, err := repro.FairReRank(scores, protected, 0, 0.8, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("positions:", len(result.Ranking), "fair scores:", len(result.FairScores))
	// Output:
	// positions: 5 fair scores: 5
}

// ExampleLipschitzAudit measures how well a transformation preserves
// task-relevant distances (the ε of the paper's Definition 1).
func ExampleLipschitzAudit() {
	x := repro.MatrixFromRows([][]float64{{0, 0}, {1, 0}, {0, 1}})
	audit := repro.LipschitzAudit(x, x, nil) // identity transform
	fmt.Printf("mean=%.1f epsilon=%.1f\n", audit.MeanViolation, audit.MaxViolation)
	// Output:
	// mean=0.0 epsilon=0.0
}

// ExampleConsistency computes the paper's individual-fairness metric yNN.
func ExampleConsistency() {
	pred := []float64{0.9, 0.9, 0.1}
	neighbours := [][]int{{1}, {0}, {0}}
	fmt.Printf("yNN = %.2f\n", repro.Consistency(pred, neighbours))
	// Output:
	// yNN = 0.73
}
