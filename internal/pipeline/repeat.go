package pipeline

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// RepeatSummary aggregates one method's headline metrics across repeated
// runs with different seeds (fresh data simulation, fresh split, fresh
// initialisation). The paper reports best-of-3 single numbers; this
// extension quantifies run-to-run variance, which any reproduction should
// surface.
type RepeatSummary struct {
	Method          string
	MeanAUC, StdAUC float64
	MeanYNN, StdYNN float64
	MeanParity      float64
	MeanEqOpp       float64
}

// RepeatStudyContext evaluates Full Data and iFair-b on freshly simulated
// data for every seed and reports mean ± std of the headline metrics over
// all of them. A run that fails ends the study with an error naming its
// seed and method (the first seed in seeds that failed), so a summary
// never covers fewer seeds than asked. The seeds are evaluated
// cfg.Parallel at a time, so gen must be safe for concurrent use; the
// study aborts with ctx.Err() once ctx is cancelled.
func RepeatStudyContext(ctx context.Context, gen func(seed int64) *dataset.Dataset, cfg StudyConfig, seeds []int64) ([]RepeatSummary, error) {
	cfg.fill()
	if len(seeds) == 0 {
		return nil, fmt.Errorf("pipeline: RepeatStudy needs at least one seed")
	}
	type sample struct{ auc, ynn, parity, eqopp float64 }
	perSeed, err := runAll(ctx, cfg.Parallel, len(seeds), func(i int) ([]sample, error) {
		seed := seeds[i]
		runCfg := cfg
		runCfg.Seed = seed
		ds := gen(seed)
		split, err := dataset.ThreeWaySplit(ds.Rows(), runCfg.TrainFrac, runCfg.ValFrac, seed)
		if err != nil {
			return nil, err
		}
		var out []sample
		for _, rep := range []Representation{FullData{}, ifairBRep(runCfg)} {
			res, err := EvalClassificationContext(ctx, ds, split, rep, runCfg.L2)
			if err != nil {
				return nil, fmt.Errorf("pipeline: repeat study seed %d, %s: %w", seed, rep.Name(), err)
			}
			out = append(out, sample{res.AUC, res.YNN, res.Parity, res.EqOpp})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	var out []RepeatSummary
	for m, method := range []string{"Full Data", "iFair-b"} {
		s := RepeatSummary{Method: method}
		var aucs, ynns []float64
		for _, samples := range perSeed {
			sm := samples[m]
			aucs = append(aucs, sm.auc)
			ynns = append(ynns, sm.ynn)
			s.MeanParity += sm.parity
			s.MeanEqOpp += sm.eqopp
		}
		s.MeanAUC, s.StdAUC = meanStd(aucs)
		s.MeanYNN, s.StdYNN = meanStd(ynns)
		s.MeanParity /= float64(len(perSeed))
		s.MeanEqOpp /= float64(len(perSeed))
		out = append(out, s)
	}
	return out, nil
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}
