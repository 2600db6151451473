package pipeline

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/ifair"
	"repro/internal/linmodel"
	"repro/internal/metrics"
)

// AgnosticRow is one row of the application-agnosticism study (an
// extension artefact): the same representation evaluated under different
// downstream models. The paper's core claim is that iFair representations
// are learned once and support arbitrary downstream applications; this
// study substantiates it empirically by swapping the downstream model.
type AgnosticRow struct {
	Dataset        string
	Representation string
	Downstream     string
	// Utility is AUC for classification and NDCG@10 for ranking.
	Utility float64
	YNN     float64
}

// AgnosticStudyContext fits one iFair-b representation per dataset and
// evaluates it under two genuinely different downstream models: logistic
// regression vs Gaussian naive Bayes for classification, pointwise linear
// regression vs a pairwise (RankNet-style) ranker for ranking. Full Data
// rows are included as the reference.
func AgnosticStudyContext(ctx context.Context, ds *dataset.Dataset, cfg StudyConfig) ([]AgnosticRow, error) {
	cfg.fill()
	if ds.Task == dataset.Classification {
		return agnosticClassification(ctx, ds, cfg)
	}
	return agnosticRanking(ctx, ds, cfg)
}

func agnosticClassification(ctx context.Context, ds *dataset.Dataset, cfg StudyConfig) ([]AgnosticRow, error) {
	split, err := dataset.ThreeWaySplit(ds.Rows(), cfg.TrainFrac, cfg.ValFrac, cfg.Seed)
	if err != nil {
		return nil, err
	}
	train := ds.Subset(split.Train)
	test := ds.Subset(split.Test)
	neighbours := yNNNeighbours(ds, split.Test)

	return agnosticRows(ctx, cfg, func(rep Representation) ([]AgnosticRow, error) {
		if err := rep.Fit(ctx, train); err != nil {
			return nil, err
		}
		trainX := rep.Transform(train.X)
		testX := rep.Transform(test.X)

		logit, err := linmodel.FitLogistic(trainX, train.Label, cfg.L2)
		if err != nil {
			return nil, err
		}
		nb, err := linmodel.FitGaussianNB(trainX, train.Label)
		if err != nil {
			return nil, err
		}
		var rows []AgnosticRow
		for _, dm := range []struct {
			name string
			pred []float64
		}{
			{"logistic", logit.PredictProba(testX)},
			{"naive-bayes", nb.PredictProba(testX)},
		} {
			rows = append(rows, AgnosticRow{
				Dataset:        ds.Name,
				Representation: rep.Name(),
				Downstream:     dm.name,
				Utility:        metrics.AUC(dm.pred, test.Label),
				YNN:            metrics.Consistency(dm.pred, neighbours),
			})
		}
		return rows, nil
	})
}

func agnosticRanking(ctx context.Context, ds *dataset.Dataset, cfg StudyConfig) ([]AgnosticRow, error) {
	qsplit, err := dataset.SplitQueries(len(ds.Queries), cfg.TrainFrac, cfg.ValFrac, cfg.Seed)
	if err != nil {
		return nil, err
	}
	trainRows := queryRows(ds, qsplit.Train)
	train := ds.Subset(trainRows)
	trainQueries := make([][]int, len(train.Queries))
	for i, q := range train.Queries {
		trainQueries[i] = q.Rows
	}
	lo, hi := bounds(ds.Score)

	return agnosticRows(ctx, cfg, func(rep Representation) ([]AgnosticRow, error) {
		if err := rep.Fit(ctx, train); err != nil {
			return nil, err
		}
		trainX := rep.Transform(train.X)
		allX := rep.Transform(ds.X)

		pointwise, err := linmodel.FitLinear(trainX, train.Score, cfg.L2)
		if err != nil {
			return nil, err
		}
		pairwise, err := linmodel.FitPairwiseRanker(trainX, train.Score, trainQueries, linmodel.RankerOptions{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		// The pairwise loss is invariant to affine changes of the scores,
		// so its raw outputs live on an arbitrary scale; calibrate them to
		// the deserved-score scale on the training rows before consistency
		// is measured (ranking metrics are unaffected — the map is
		// monotone).
		pairwisePred := calibrate(pairwise.Predict(trainX), train.Score, pairwise.Predict(allX))
		var rows []AgnosticRow
		for _, dm := range []struct {
			name string
			pred []float64
		}{
			{"pointwise", pointwise.Predict(allX)},
			{"pairwise", pairwisePred},
		} {
			norm := normaliseWith(dm.pred, lo, hi)
			var ndcgSum, ynnSum float64
			for _, qi := range qsplit.Test {
				q := ds.Queries[qi]
				pred := make([]float64, len(q.Rows))
				truth := make([]float64, len(q.Rows))
				nq := make([]float64, len(q.Rows))
				for i, r := range q.Rows {
					pred[i] = dm.pred[r]
					truth[i] = ds.Score[r]
					nq[i] = norm[r]
				}
				ndcgSum += metrics.NDCGAtK(pred, truth, 10)
				ynnSum += metrics.Consistency(nq, yNNNeighbours(ds, q.Rows))
			}
			nq := float64(len(qsplit.Test))
			rows = append(rows, AgnosticRow{
				Dataset:        ds.Name,
				Representation: rep.Name(),
				Downstream:     dm.name,
				Utility:        ndcgSum / nq,
				YNN:            ynnSum / nq,
			})
		}
		return rows, nil
	})
}

// agnosticRows evaluates the Full Data reference and the iFair-b
// representation through rows, one job each, and returns their rows in
// that order.
func agnosticRows(ctx context.Context, cfg StudyConfig, rows func(Representation) ([]AgnosticRow, error)) ([]AgnosticRow, error) {
	reps := []Representation{FullData{}, ifairBRep(cfg)}
	perRep, err := runAll(ctx, cfg.Parallel, len(reps), func(i int) ([]AgnosticRow, error) { return rows(reps[i]) })
	if err != nil {
		return nil, err
	}
	return append(perRep[0], perRep[1]...), nil
}

// calibrate fits scale·x + shift mapping trainPred onto trainTruth by
// least squares and applies it to pred. A degenerate (constant) predictor
// maps to the truth mean.
func calibrate(trainPred, trainTruth, pred []float64) []float64 {
	var meanP, meanT float64
	for i := range trainPred {
		meanP += trainPred[i]
		meanT += trainTruth[i]
	}
	n := float64(len(trainPred))
	meanP /= n
	meanT /= n
	var cov, varP float64
	for i := range trainPred {
		dp := trainPred[i] - meanP
		cov += dp * (trainTruth[i] - meanT)
		varP += dp * dp
	}
	scale := 0.0
	if varP > 0 {
		scale = cov / varP
	}
	out := make([]float64, len(pred))
	for i, p := range pred {
		out[i] = meanT + scale*(p-meanP)
	}
	return out
}

// ifairBRep builds the fixed iFair-b representation used by the extension
// studies.
func ifairBRep(cfg StudyConfig) Representation {
	return &IFairRep{Opts: ifair.Options{
		K: cfg.K[len(cfg.K)-1], Lambda: 1, Mu: 1,
		Init: ifair.InitMaskedProtected, Fairness: ifair.SampledFairness,
		PairSamples: 64,
		Restarts:    cfg.Restarts, MaxIterations: cfg.MaxIterations, Seed: cfg.Seed,
		Workers: cfg.Workers, Trace: cfg.Trace,
	}}
}

// String implements fmt.Stringer for reporting.
func (r AgnosticRow) String() string {
	return fmt.Sprintf("%s/%s/%s utility=%.3f yNN=%.3f", r.Dataset, r.Representation, r.Downstream, r.Utility, r.YNN)
}
