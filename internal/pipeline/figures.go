package pipeline

import (
	"context"
	"fmt"

	"repro/internal/adversarial"
	"repro/internal/dataset"
	"repro/internal/fairrank"
	"repro/internal/ifair"
	"repro/internal/lfr"
	"repro/internal/linmodel"
	"repro/internal/metrics"
)

// Fig2Cell is one panel annotation of Fig. 2: the classifier metrics on
// one synthetic-data variant under one representation.
type Fig2Cell struct {
	Variant string
	Method  string

	Acc, YNN, Parity, EqOpp float64
}

// Fig2Study reproduces the synthetic properties study of Sec. IV: for each
// protected-attribute variant, a logistic classifier is trained on (a) the
// original data, (b) the iFair representation and (c) the LFR
// representation, with hyper-parameters grid-searched for the best
// individual fairness of the classifier, and the four panel metrics are
// reported. As in the paper's illustration, the model is fit and evaluated
// on the full 100-point sample.
//
// Fig2Study is a convenience wrapper around Fig2StudyContext with a
// background context.
func Fig2Study(cfg StudyConfig) ([]Fig2Cell, error) {
	return Fig2StudyContext(context.Background(), cfg)
}

// Fig2StudyContext is Fig2Study with cancellation: the grid search aborts
// with ctx.Err() once ctx is cancelled.
func Fig2StudyContext(ctx context.Context, cfg StudyConfig) ([]Fig2Cell, error) {
	cfg.fill()
	// The study is tiny (100 points, K = 4), so always search the paper's
	// full mixture grid of Sec. IV/V-B rather than the trimmed study grid.
	grid := []float64{0, 0.05, 0.1, 1, 10, 100}
	var cells []Fig2Cell
	for _, variant := range []dataset.MixtureVariant{
		dataset.VariantRandom, dataset.VariantCorrelatedX1, dataset.VariantCorrelatedX2,
	} {
		ds := dataset.SyntheticMixture(variant, 100, cfg.Seed)
		all := allIndices(ds.Rows())
		neighbours := yNNNeighbours(ds, all)

		// The original data, then the iFair grid (small prototype counts
		// suit the 3-attribute data), then the LFR grid; both grids are
		// tuned for the best consistency as the paper does.
		reps := []Representation{FullData{}}
		for _, lambda := range grid {
			for _, mu := range grid {
				if lambda == 0 && mu == 0 {
					continue
				}
				reps = append(reps, &IFairRep{Opts: ifair.Options{
					K: 4, Lambda: lambda, Mu: mu,
					Init: ifair.InitMaskedProtected, Fairness: ifair.PairwiseFairness,
					Restarts: cfg.Restarts, MaxIterations: cfg.MaxIterations, Seed: cfg.Seed,
					Workers: cfg.Workers, Trace: cfg.Trace,
				}})
			}
		}
		lfrFrom := len(reps)
		for _, az := range grid {
			reps = append(reps, &LFRRep{Opts: lfr.Options{
				K: 4, Az: az, Ax: 1, Ay: 1,
				Restarts: cfg.Restarts, MaxIterations: cfg.MaxIterations, Seed: cfg.Seed,
				Workers: cfg.Workers, Trace: cfg.Trace,
			}})
		}

		fits, errs, err := runJobs(ctx, cfg.Parallel, len(reps), func(i int) (Fig2Cell, error) {
			rep := reps[i]
			if err := rep.Fit(ctx, ds.Subset(all)); err != nil {
				return Fig2Cell{}, err
			}
			clf, err := linmodel.FitLogistic(rep.Transform(ds.X), ds.Label, cfg.L2)
			if err != nil {
				return Fig2Cell{}, err
			}
			pred := clf.PredictProba(rep.Transform(ds.X))
			return Fig2Cell{
				Variant: variant.String(),
				Acc:     metrics.Accuracy(pred, ds.Label),
				YNN:     metrics.Consistency(pred, neighbours),
				Parity:  metrics.StatisticalParity(hardPred(pred), ds.Protected),
				EqOpp:   metrics.EqualOpportunity(pred, ds.Label, ds.Protected),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		from := []int{0, 1, lfrFrom, len(reps)}
		for g, method := range []string{"original", "iFair", "LFR"} {
			lo, hi := from[g], from[g+1]
			best := bestBy(fits[lo:hi], succeeded(errs[lo:hi]), func(c Fig2Cell) float64 { return c.YNN })
			if best < 0 {
				return nil, fmt.Errorf("fig2 %s: no %s configuration fitted: %w", variant, method, errs[lo])
			}
			cell := fits[lo+best]
			cell.Method = method
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// AdversarialCell is one bar of Fig. 4: the accuracy of a logistic
// adversary predicting protected-group membership from a representation.
type AdversarialCell struct {
	Dataset string
	Method  string
	// Accuracy of the adversary on held-out records (lower is better).
	Accuracy float64
}

// AdversarialStudy reproduces Fig. 4 on one dataset: it trains a logistic
// adversary to recover the protected attribute from (i) masked data,
// (ii) the LFR representation (classification datasets only) and (iii) the
// iFair-b representation, reporting held-out accuracy.
//
// AdversarialStudy is a convenience wrapper around
// AdversarialStudyContext with a background context.
func AdversarialStudy(ds *dataset.Dataset, cfg StudyConfig) ([]AdversarialCell, error) {
	return AdversarialStudyContext(context.Background(), ds, cfg)
}

// AdversarialStudyContext is AdversarialStudy with cancellation.
func AdversarialStudyContext(ctx context.Context, ds *dataset.Dataset, cfg StudyConfig) ([]AdversarialCell, error) {
	cfg.fill()
	split, err := dataset.ThreeWaySplit(ds.Rows(), cfg.TrainFrac, cfg.ValFrac, cfg.Seed)
	if err != nil {
		return nil, err
	}
	train := ds.Subset(split.Train)
	test := ds.Subset(split.Test)

	reps := []Representation{&MaskedData{}}
	if ds.Task == dataset.Classification {
		reps = append(reps, &LFRRep{Opts: lfr.Options{
			K: cfg.K[0], Az: 1, Ax: 1, Ay: 1,
			Restarts: cfg.Restarts, MaxIterations: cfg.MaxIterations, Seed: cfg.Seed,
			Workers: cfg.Workers, Trace: cfg.Trace,
		}})
	}
	reps = append(reps,
		&IFairRep{Opts: ifair.Options{
			K: cfg.K[0], Lambda: 1, Mu: 1,
			Init: ifair.InitMaskedProtected, Fairness: ifair.SampledFairness,
			Restarts: cfg.Restarts, MaxIterations: cfg.MaxIterations, Seed: cfg.Seed,
			Workers: cfg.Workers, Trace: cfg.Trace,
		}},
		// Extension comparator: the censored-representation baseline of
		// the paper's Related Work, which optimises obfuscation directly.
		&CensoredRep{Opts: adversarial.Options{Trace: cfg.Trace}},
	)
	return runAll(ctx, cfg.Parallel, len(reps), func(i int) (AdversarialCell, error) {
		rep := reps[i]
		if err := rep.Fit(ctx, train); err != nil {
			return AdversarialCell{}, err
		}
		adv, err := linmodel.FitLogistic(rep.Transform(train.X), train.Protected, cfg.L2)
		if err != nil {
			return AdversarialCell{}, err
		}
		pred := adv.PredictProba(rep.Transform(test.X))
		return AdversarialCell{
			Dataset:  ds.Name,
			Method:   rep.Name(),
			Accuracy: metrics.Accuracy(pred, test.Protected),
		}, nil
	})
}

// PostProcessPoint is one x-position of Fig. 5: FA*IR applied to iFair
// representations at target proportion P.
type PostProcessPoint struct {
	P                  float64
	MAP, YNN, PctInTop float64
	// Infeasible counts the test queries on which FA*IR ran out of
	// protected candidates before meeting the target p.
	Infeasible int
}

// PostProcessStudy reproduces Fig. 5 on one ranking dataset: an iFair-b
// representation is fitted once, a linear regressor produces "fair scores",
// and FA*IR re-ranks each test query for a sweep of target proportions p,
// demonstrating that group-fairness constraints can be enforced post-hoc on
// individually fair representations.
//
// PostProcessStudy is a convenience wrapper around
// PostProcessStudyContext with a background context.
func PostProcessStudy(ds *dataset.Dataset, cfg StudyConfig, ps []float64) ([]PostProcessPoint, error) {
	return PostProcessStudyContext(context.Background(), ds, cfg, ps)
}

// PostProcessStudyContext is PostProcessStudy with cancellation.
func PostProcessStudyContext(ctx context.Context, ds *dataset.Dataset, cfg StudyConfig, ps []float64) ([]PostProcessPoint, error) {
	cfg.fill()
	qsplit, err := dataset.SplitQueries(len(ds.Queries), cfg.TrainFrac, cfg.ValFrac, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rep := ifairBRep(cfg)
	trainRows := queryRows(ds, qsplit.Train)
	train := ds.Subset(trainRows)
	if err := rep.Fit(ctx, train); err != nil {
		return nil, err
	}
	reg, err := linmodel.FitLinear(rep.Transform(train.X), train.Score, cfg.L2)
	if err != nil {
		return nil, err
	}
	allPred := reg.Predict(rep.Transform(ds.X))
	lo, hi := bounds(ds.Score)

	var points []PostProcessPoint
	for _, p := range ps {
		var qm queryMetrics
		infeasible := 0
		for _, qi := range qsplit.Test {
			q := ds.Queries[qi]
			pred := make([]float64, len(q.Rows))
			prot := make([]bool, len(q.Rows))
			for i, r := range q.Rows {
				pred[i] = allPred[r]
				prot[i] = ds.Protected[r]
			}
			rr, err := fairrank.ReRank(pred, prot, 0, p, 0.1)
			if err != nil {
				return nil, err
			}
			if rr.Infeasible {
				infeasible++
			}
			fair := make([]float64, len(q.Rows))
			for rank, cand := range rr.Ranking {
				fair[cand] = rr.FairScores[rank]
			}
			qm.add(scoreQuery(ds, q, fair, normaliseWith(fair, lo, hi)))
		}
		mapAt, _, ynn, pct := qm.averages()
		points = append(points, PostProcessPoint{P: p, MAP: mapAt, YNN: ynn, PctInTop: pct, Infeasible: infeasible})
	}
	return points, nil
}

// Table4Row is one row of the weight-sensitivity study on Xing.
type Table4Row struct {
	Weights dataset.XingWeights
	// BaseRateProtected is the protected share of the candidate pool (%).
	BaseRateProtected          float64
	MAP, KT, YNN, PctProtected float64
}

// Table4 reproduces the paper's Table IV: iFair-b rankings on the Xing
// dataset under the paper's seven ranking-score weight combinations.
//
// Table4 is a convenience wrapper around Table4Context with a background
// context.
func Table4(cfg StudyConfig, weightRows []dataset.XingWeights) ([]Table4Row, error) {
	return Table4Context(context.Background(), cfg, weightRows)
}

// Table4Context is Table4 with cancellation.
func Table4Context(ctx context.Context, cfg StudyConfig, weightRows []dataset.XingWeights) ([]Table4Row, error) {
	cfg.fill()
	if len(weightRows) == 0 {
		// The seven combinations reported in Table IV.
		weightRows = []dataset.XingWeights{
			{Work: 0, Education: 0.5, Views: 1},
			{Work: 0.25, Education: 0.75, Views: 0},
			{Work: 0.5, Education: 1, Views: 0.25},
			{Work: 0.75, Education: 0, Views: 0.5},
			{Work: 0.75, Education: 0.25, Views: 0},
			{Work: 1, Education: 0.25, Views: 0.75},
			{Work: 1, Education: 1, Views: 1},
		}
	}
	return runAll(ctx, cfg.Parallel, len(weightRows), func(i int) (Table4Row, error) {
		w := weightRows[i]
		ds := dataset.Xing(w, dataset.RankingConfig{Seed: cfg.Seed})
		qsplit, err := dataset.SplitQueries(len(ds.Queries), cfg.TrainFrac, cfg.ValFrac, cfg.Seed)
		if err != nil {
			return Table4Row{}, err
		}
		res, err := EvalRankingContext(ctx, ds, qsplit, ifairBRep(cfg), cfg.L2)
		if err != nil {
			return Table4Row{}, err
		}
		var prot int
		for _, p := range ds.Protected {
			if p {
				prot++
			}
		}
		return Table4Row{
			Weights:           w,
			BaseRateProtected: 100 * float64(prot) / float64(ds.Rows()),
			MAP:               res.MAP,
			KT:                res.KT,
			YNN:               res.YNN,
			PctProtected:      res.PctProtected,
		}, nil
	})
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
