package pipeline

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/linmodel"
	"repro/internal/metrics"
)

// ClassificationResult holds every metric the paper reports for one
// representation method on one classification dataset (Table III columns).
type ClassificationResult struct {
	Method string
	Params string

	Acc, AUC float64 // utility
	YNN      float64 // individual fairness (consistency, k = 10)
	Parity   float64 // group fairness: statistical parity
	EqOpp    float64 // group fairness: equality of opportunity
	ValidYNN float64 // consistency on the validation split (tuning)
	ValidAUC float64 // AUC on the validation split (tuning)
	ValidAcc float64
	FitError string // non-empty when the representation failed to fit
}

// yNNNeighbours computes the k = 10 nearest neighbours of each record in
// idx, among the records in idx, on the original non-protected
// attributes, as Sec. V-C specifies. Every yNN figure in the pipeline
// takes its neighbour sets from here, through the same exact kd-tree
// NeighborFairness training uses.
func yNNNeighbours(ds *dataset.Dataset, idx []int) [][]int {
	return knn.NewKDTree(ds.Subset(idx).NonProtectedX()).AllNeighbors(10)
}

// neighbourCache holds precomputed consistency neighbour lists for a
// fixed split, shared across grid-search configurations.
type neighbourCache struct {
	test, valid [][]int
}

// EvalClassification fits rep on the training portion of ds, trains a
// logistic-regression classifier on the transformed training records and
// evaluates every metric on the transformed test (and validation) records.
//
// EvalClassification is a convenience wrapper around
// EvalClassificationContext with a background context.
func EvalClassification(ds *dataset.Dataset, split dataset.Split, rep Representation, l2 float64) (ClassificationResult, error) {
	return evalClassificationCached(context.Background(), ds, split, rep, l2, nil)
}

// EvalClassificationContext is EvalClassification with cancellation: ctx
// propagates into the representation's fit.
func EvalClassificationContext(ctx context.Context, ds *dataset.Dataset, split dataset.Split, rep Representation, l2 float64) (ClassificationResult, error) {
	return evalClassificationCached(ctx, ds, split, rep, l2, nil)
}

func evalClassificationCached(ctx context.Context, ds *dataset.Dataset, split dataset.Split, rep Representation, l2 float64, cache *neighbourCache) (ClassificationResult, error) {
	res := ClassificationResult{Method: rep.Name()}

	train := ds.Subset(split.Train)
	if err := rep.Fit(ctx, train); err != nil {
		return res, fmt.Errorf("fit %s: %w", rep.Name(), err)
	}

	clf, err := linmodel.FitLogistic(rep.Transform(train.X), train.Label, l2)
	if err != nil {
		return res, fmt.Errorf("train classifier on %s: %w", rep.Name(), err)
	}

	eval := func(idx []int, neighbours [][]int) (acc, auc, ynn, parity, eqopp float64) {
		part := ds.Subset(idx)
		pred := clf.PredictProba(rep.Transform(part.X))
		if neighbours == nil {
			neighbours = yNNNeighbours(ds, idx)
		}
		acc = metrics.Accuracy(pred, part.Label)
		auc = metrics.AUC(pred, part.Label)
		ynn = metrics.Consistency(pred, neighbours)
		parity = metrics.StatisticalParity(hardPred(pred), part.Protected)
		eqopp = metrics.EqualOpportunity(pred, part.Label, part.Protected)
		return
	}

	var testNb, validNb [][]int
	if cache != nil {
		testNb, validNb = cache.test, cache.valid
	}
	res.Acc, res.AUC, res.YNN, res.Parity, res.EqOpp = eval(split.Test, testNb)
	res.ValidAcc, res.ValidAUC, res.ValidYNN, _, _ = eval(split.Validation, validNb)
	return res, nil
}

// hardPred thresholds probabilistic predictions for the parity measure,
// which the paper states over predicted outcomes ŷ.
func hardPred(proba []float64) []float64 {
	out := make([]float64, len(proba))
	for i, p := range proba {
		if p >= 0.5 {
			out[i] = 1
		}
	}
	return out
}
