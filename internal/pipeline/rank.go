package pipeline

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/fairrank"
	"repro/internal/ifair"
	"repro/internal/linmodel"
	"repro/internal/metrics"
)

// RankingResult holds the Table V columns for one method on one ranking
// dataset: mean average precision at 10, mean Kendall's τ, mean
// consistency, and the mean share of protected candidates in the top 10.
type RankingResult struct {
	Method string
	Params string

	MAP, KT, YNN, PctProtected float64
	// Validation-split counterparts used for hyper-parameter tuning.
	ValidMAP, ValidYNN float64
	FitError           string
}

// queryMetrics accumulates per-query measurements and averages them.
type queryMetrics struct {
	mapSum, ktSum, ynnSum, pctSum float64
	n                             int
}

func (q *queryMetrics) add(mapAt, kt, ynn, pct float64) {
	q.mapSum += mapAt
	q.ktSum += kt
	q.ynnSum += ynn
	q.pctSum += pct
	q.n++
}

func (q *queryMetrics) averages() (mapAt, kt, ynn, pct float64) {
	if q.n == 0 {
		return 0, 0, 0, 0
	}
	f := float64(q.n)
	return q.mapSum / f, q.ktSum / f, q.ynnSum / f, q.pctSum / f
}

// scoreQuery evaluates one query given predicted scores (aligned with the
// query's rows) and the ground truth. norm holds the same scores rescaled
// into [0, 1] with bounds shared across all evaluated queries, so the
// consistency metric measures "similar individuals receive similar scores"
// on a method-wide scale rather than being inflated by per-query
// stretching.
func scoreQuery(ds *dataset.Dataset, q dataset.Query, pred, norm []float64) (mapAt, kt, ynn, pct float64) {
	truth := make([]float64, len(q.Rows))
	prot := make([]bool, len(q.Rows))
	for i, r := range q.Rows {
		truth[i] = ds.Score[r]
		prot[i] = ds.Protected[r]
	}
	predRank := metrics.RankDescending(pred)
	truthRank := metrics.RankDescending(truth)
	mapAt = metrics.AveragePrecisionAtK(predRank, truthRank, 10)
	kt = metrics.KendallTau(pred, truth)
	pct = metrics.ProtectedShareTopK(predRank, prot, 10)

	// Consistency: k = 10 nearest neighbours within the query pool,
	// computed on original non-protected attributes (Sec. V-C).
	ynn = metrics.Consistency(norm, yNNNeighbours(ds, q.Rows))
	return
}

// normaliseWith rescales scores into [0, 1] using the given global bounds.
func normaliseWith(scores []float64, lo, hi float64) []float64 {
	out := make([]float64, len(scores))
	if hi <= lo {
		return out
	}
	for i, s := range scores {
		out[i] = (s - lo) / (hi - lo)
	}
	return out
}

// bounds returns the min and max of xs.
func bounds(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range xs {
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	return lo, hi
}

// EvalRanking fits rep on the records of the training queries, trains a
// linear-regression scoring model on the transformed features, and
// evaluates the ranking metrics over the validation and test queries.
//
// EvalRanking is a convenience wrapper around EvalRankingContext with a
// background context.
func EvalRanking(ds *dataset.Dataset, qsplit dataset.Split, rep Representation, l2 float64) (RankingResult, error) {
	return EvalRankingContext(context.Background(), ds, qsplit, rep, l2)
}

// EvalRankingContext is EvalRanking with cancellation: ctx propagates into
// the representation's fit.
func EvalRankingContext(ctx context.Context, ds *dataset.Dataset, qsplit dataset.Split, rep Representation, l2 float64) (RankingResult, error) {
	res := RankingResult{Method: rep.Name()}
	if ds.Task != dataset.Ranking {
		return res, fmt.Errorf("pipeline: dataset %q is not a ranking dataset", ds.Name)
	}

	trainRows := queryRows(ds, qsplit.Train)
	train := ds.Subset(trainRows)
	if err := rep.Fit(ctx, train); err != nil {
		return res, fmt.Errorf("fit %s: %w", rep.Name(), err)
	}
	reg, err := linmodel.FitLinear(rep.Transform(train.X), train.Score, l2)
	if err != nil {
		return res, fmt.Errorf("train regressor on %s: %w", rep.Name(), err)
	}

	// Predict scores for all records once. Consistency is computed on a
	// scale shared by every method — the range of the ground-truth
	// deserved scores — so that a representation which genuinely smooths
	// scores scores higher, instead of being re-stretched per method.
	allPred := reg.Predict(rep.Transform(ds.X))
	lo, hi := bounds(ds.Score)
	allNorm := normaliseWith(allPred, lo, hi)

	eval := func(queryIdx []int) (mapAt, kt, ynn, pct float64) {
		var qm queryMetrics
		for _, qi := range queryIdx {
			q := ds.Queries[qi]
			pred := make([]float64, len(q.Rows))
			norm := make([]float64, len(q.Rows))
			for i, r := range q.Rows {
				pred[i] = allPred[r]
				norm[i] = allNorm[r]
			}
			qm.add(scoreQuery(ds, q, pred, norm))
		}
		return qm.averages()
	}

	res.MAP, res.KT, res.YNN, res.PctProtected = eval(qsplit.Test)
	res.ValidMAP, _, res.ValidYNN, _ = eval(qsplit.Validation)
	return res, nil
}

// EvalFAIR evaluates the FA*IR baseline (Sec. V-E): scores come from a
// linear regression on masked data; each query's candidate list is then
// re-ranked by FA*IR with target proportion p, and the interpolated fair
// scores feed the consistency metric.
func EvalFAIR(ds *dataset.Dataset, qsplit dataset.Split, p, alpha, l2 float64) (RankingResult, error) {
	res := RankingResult{Method: fmt.Sprintf("FA*IR (p=%g)", p)}
	masked := &MaskedData{}
	trainRows := queryRows(ds, qsplit.Train)
	train := ds.Subset(trainRows)
	if err := masked.Fit(context.Background(), train); err != nil {
		return res, err
	}
	reg, err := linmodel.FitLinear(masked.Transform(train.X), train.Score, l2)
	if err != nil {
		return res, err
	}
	allPred := reg.Predict(masked.Transform(ds.X))
	lo, hi := bounds(ds.Score)

	eval := func(queryIdx []int) (mapAt, kt, ynn, pct float64, err error) {
		var qm queryMetrics
		for _, qi := range queryIdx {
			q := ds.Queries[qi]
			pred := make([]float64, len(q.Rows))
			prot := make([]bool, len(q.Rows))
			for i, r := range q.Rows {
				pred[i] = allPred[r]
				prot[i] = ds.Protected[r]
			}
			rr, err := fairrank.ReRank(pred, prot, 0, p, alpha)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			// Map fair scores back to candidate order for metric input.
			fair := make([]float64, len(q.Rows))
			for rank, cand := range rr.Ranking {
				fair[cand] = rr.FairScores[rank]
			}
			qm.add(scoreQuery(ds, q, fair, normaliseWith(fair, lo, hi)))
		}
		mapAt, kt, ynn, pct = qm.averages()
		return mapAt, kt, ynn, pct, nil
	}

	if res.MAP, res.KT, res.YNN, res.PctProtected, err = eval(qsplit.Test); err != nil {
		return res, err
	}
	if res.ValidMAP, _, res.ValidYNN, _, err = eval(qsplit.Validation); err != nil {
		return res, err
	}
	return res, nil
}

// queryRows flattens the row sets of the given query indices.
func queryRows(ds *dataset.Dataset, queryIdx []int) []int {
	var rows []int
	for _, qi := range queryIdx {
		rows = append(rows, ds.Queries[qi].Rows...)
	}
	return rows
}

// Table5 reproduces the paper's Table V on one ranking dataset: Full,
// Masked, SVD, SVD-masked, FA*IR at the given p values, and iFair-b tuned
// by the Optimal criterion (best harmonic mean of validation MAP and yNN).
//
// Table5 is a convenience wrapper around Table5Context with a background
// context.
func Table5(ds *dataset.Dataset, cfg StudyConfig, fairPs []float64) ([]RankingResult, error) {
	return Table5Context(context.Background(), ds, cfg, fairPs)
}

// Table5Context is Table5 with cancellation: the grid search aborts with
// ctx.Err() once ctx is cancelled.
func Table5Context(ctx context.Context, ds *dataset.Dataset, cfg StudyConfig, fairPs []float64) ([]RankingResult, error) {
	cfg.fill()
	qsplit, err := dataset.SplitQueries(len(ds.Queries), cfg.TrainFrac, cfg.ValFrac, cfg.Seed)
	if err != nil {
		return nil, err
	}

	var results []RankingResult
	run := func(rep Representation, params string) RankingResult {
		r, err := EvalRankingContext(ctx, ds, qsplit, rep, cfg.L2)
		r.Params = params
		if err != nil {
			r.FitError = err.Error()
		}
		results = append(results, r)
		return r
	}

	run(FullData{}, "")
	run(&MaskedData{}, "")

	// SVD variants: tune K on validation harmonic mean.
	for _, masked := range []bool{false, true} {
		var best *RankingResult
		for _, k := range cfg.K {
			r, err := EvalRankingContext(ctx, ds, qsplit, &SVDRep{K: k, Masked: masked}, cfg.L2)
			if err != nil {
				continue
			}
			r.Params = fmt.Sprintf("K=%d", k)
			if best == nil || tuneScore(r) > tuneScore(*best) {
				cp := r
				best = &cp
			}
		}
		if best != nil {
			results = append(results, *best)
		}
	}

	for _, p := range fairPs {
		r, err := EvalFAIR(ds, qsplit, p, 0.1, cfg.L2)
		if err != nil {
			r.FitError = err.Error()
		}
		results = append(results, r)
	}

	// iFair-b: grid search tuned by the Optimal criterion. Per-config fit
	// errors are tolerated, so check the context each round or a
	// cancellation would be swallowed as a skipped configuration.
	var best *RankingResult
	for _, opts := range cfg.iFairConfigs(ifair.InitMaskedProtected) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := EvalRankingContext(ctx, ds, qsplit, &IFairRep{Opts: opts}, cfg.L2)
		if err != nil {
			continue
		}
		r.Params = fmt.Sprintf("l=%g,m=%g,K=%d", opts.Lambda, opts.Mu, opts.K)
		if best == nil || tuneScore(r) > tuneScore(*best) {
			cp := r
			best = &cp
		}
	}
	if best != nil {
		results = append(results, *best)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

func tuneScore(r RankingResult) float64 {
	return metrics.HarmonicMean(r.ValidMAP, r.ValidYNN)
}
