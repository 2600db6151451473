package pipeline

import (
	"context"
	"math/rand"

	"repro/internal/adversarial"
	"repro/internal/dataset"
	"repro/internal/ifair"
	"repro/internal/lfr"
	"repro/internal/metrics"
)

// AuditRow is one row of the Definition-1 audit (an extension beyond the
// paper's own tables): the empirical distance-preservation violations of a
// representation method on held-out records.
type AuditRow struct {
	Dataset string
	Method  string
	Result  metrics.AuditResult
}

// AuditStudyContext measures, for each representation method, how far
// transformed pairwise distances stray from the original non-protected
// distances — the empirical ε of Definition 1. Pairs are sampled (4 per
// record by default) on the test split; the identity (Full Data) row is
// included as the reference, whose only violations come from masking the
// protected columns.
func AuditStudyContext(ctx context.Context, ds *dataset.Dataset, cfg StudyConfig) ([]AuditRow, error) {
	cfg.fill()
	split, err := dataset.ThreeWaySplit(ds.Rows(), cfg.TrainFrac, cfg.ValFrac, cfg.Seed)
	if err != nil {
		return nil, err
	}
	train := ds.Subset(split.Train)
	test := ds.Subset(split.Test)
	reference := test.NonProtectedX()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pairs := metrics.SamplePairs(test.Rows(), 4*test.Rows(), rng)

	reps := []Representation{
		FullData{},
		&MaskedData{},
		&SVDRep{K: cfg.K[0]},
		&IFairRep{Opts: ifair.Options{
			K: cfg.K[0], Lambda: 1, Mu: 1,
			Init: ifair.InitMaskedProtected, Fairness: ifair.SampledFairness,
			Restarts: cfg.Restarts, MaxIterations: cfg.MaxIterations, Seed: cfg.Seed,
			Workers: cfg.Workers, Trace: cfg.Trace,
		}},
		&CensoredRep{Opts: adversarial.Options{Trace: cfg.Trace}},
	}
	if ds.Task == dataset.Classification {
		reps = append(reps, &LFRRep{Opts: lfr.Options{
			K: cfg.K[0], Az: 1, Ax: 1, Ay: 1,
			Restarts: cfg.Restarts, MaxIterations: cfg.MaxIterations, Seed: cfg.Seed,
			Workers: cfg.Workers, Trace: cfg.Trace,
		}})
	}
	return runAll(ctx, cfg.Parallel, len(reps), func(i int) (AuditRow, error) {
		rep := reps[i]
		if err := rep.Fit(ctx, train); err != nil {
			return AuditRow{}, err
		}
		return AuditRow{
			Dataset: ds.Name,
			Method:  rep.Name(),
			Result:  metrics.LipschitzAudit(reference, rep.Transform(test.X), pairs),
		}, nil
	})
}
