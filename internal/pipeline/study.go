package pipeline

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/ifair"
	"repro/internal/lfr"
	"repro/internal/metrics"
	"repro/internal/optimize"
)

// StudyConfig controls the hyper-parameter search of the classification
// and ranking studies. The zero value selects a trimmed "quick" grid; use
// PaperStudyConfig for the paper's full grid of Sec. V-B.
type StudyConfig struct {
	// Seed drives splits and all model initialisation.
	Seed int64
	// Mixture lists candidate values for the loss-mixture coefficients
	// (λ, µ for iFair; A_z, A_x, A_y for LFR).
	Mixture []float64
	// K lists candidate prototype counts.
	K []int
	// Restarts per configuration (paper: best of 3).
	Restarts int
	// MaxIterations per optimisation run.
	MaxIterations int
	// L2 is the ridge strength of downstream models.
	L2 float64
	// TrainFrac and ValFrac define the three-way split.
	TrainFrac, ValFrac float64
	// Parallel is the number of fits every study evaluates concurrently
	// (≤ 1 runs them one at a time). Results are deterministic regardless
	// of the value: every fit is seeded independently and results are
	// collected in job order.
	Parallel int
	// Workers is the per-fit objective-evaluation worker count passed to
	// the iFair and LFR learners (≤ 1 evaluates sequentially). Fitted
	// models are bit-identical for every value; see internal/par.
	Workers int
	// Trace, when non-nil, observes every training run launched by the
	// studies (restart and iteration events). Grid searches fit many
	// configurations — with Parallel > 1 concurrently — so implementations
	// must be safe for concurrent use.
	Trace optimize.Trace
	// CheckpointDir, when non-empty, makes every iFair fit in the grid
	// crash-safe: each (dataset, variant, λ, µ, K) configuration
	// checkpoints into its own subdirectory, so a killed study rerun with
	// the same config skips every configuration and restart that already
	// finished and produces bit-identical results. Long grid searches are
	// exactly where crashes hurt the most.
	CheckpointDir string
}

// PaperStudyConfig mirrors Sec. V-B: mixture coefficients from
// {0, 0.05, 0.1, 1, 10, 100}, K from {10, 20, 30}, best of 3 runs.
func PaperStudyConfig(seed int64) StudyConfig {
	return StudyConfig{
		Seed:          seed,
		Mixture:       []float64{0, 0.05, 0.1, 1, 10, 100},
		K:             []int{10, 20, 30},
		Restarts:      3,
		MaxIterations: 150,
		L2:            0.01,
		TrainFrac:     1.0 / 3,
		ValFrac:       1.0 / 3,
	}
}

func (c *StudyConfig) fill() {
	if len(c.Mixture) == 0 {
		c.Mixture = []float64{0.1, 1, 10}
	}
	if len(c.K) == 0 {
		c.K = []int{10}
	}
	if c.Restarts <= 0 {
		c.Restarts = 1
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 60
	}
	if c.L2 <= 0 {
		c.L2 = 0.01
	}
	if c.TrainFrac <= 0 || c.ValFrac <= 0 || c.TrainFrac+c.ValFrac >= 1 {
		c.TrainFrac, c.ValFrac = 1.0/3, 1.0/3
	}
}

// iFairConfigs enumerates the (λ, µ, K) grid for one iFair variant,
// skipping the degenerate all-zero combination.
func (c *StudyConfig) iFairConfigs(variant ifair.InitStrategy) []ifair.Options {
	var out []ifair.Options
	for _, lambda := range c.Mixture {
		for _, mu := range c.Mixture {
			if lambda == 0 && mu == 0 {
				continue
			}
			for _, k := range c.K {
				out = append(out, ifair.Options{
					K:             k,
					Lambda:        lambda,
					Mu:            mu,
					Init:          variant,
					Fairness:      ifair.SampledFairness,
					PairSamples:   32,
					Restarts:      c.Restarts,
					MaxIterations: c.MaxIterations,
					Seed:          c.Seed,
					Workers:       c.Workers,
					Trace:         c.Trace,
				})
			}
		}
	}
	return out
}

// lfrConfigs enumerates the (A_z, A_x, A_y, K) grid, keeping the
// reconstruction and prediction terms active (A_x, A_y > 0) as LFR
// requires a classifier and a data loss to be meaningful.
func (c *StudyConfig) lfrConfigs() []lfr.Options {
	var nonZero []float64
	for _, v := range c.Mixture {
		if v > 0 {
			nonZero = append(nonZero, v)
		}
	}
	var out []lfr.Options
	for _, az := range c.Mixture {
		for _, ax := range nonZero {
			for _, ay := range nonZero {
				for _, k := range c.K {
					out = append(out, lfr.Options{
						K: k, Az: az, Ax: ax, Ay: ay,
						Restarts:      c.Restarts,
						MaxIterations: c.MaxIterations,
						Seed:          c.Seed,
						Workers:       c.Workers,
						Trace:         c.Trace,
					})
				}
			}
		}
	}
	return out
}

// TradeoffStudy runs every representation method and hyper-parameter
// configuration on ds and returns all results — the point cloud of Fig. 3.
// The caller can extract Pareto fronts with ParetoByMethod. Configurations
// are evaluated cfg.Parallel at a time; the result order is the grid
// order either way.
//
// TradeoffStudy is a convenience wrapper around TradeoffStudyContext with
// a background context.
func TradeoffStudy(ds *dataset.Dataset, cfg StudyConfig) ([]ClassificationResult, error) {
	return TradeoffStudyContext(context.Background(), ds, cfg)
}

// TradeoffStudyContext is TradeoffStudy with cancellation: ctx propagates
// into every configuration's fit, configurations not yet started when ctx
// is cancelled are skipped, and the study returns ctx.Err().
func TradeoffStudyContext(ctx context.Context, ds *dataset.Dataset, cfg StudyConfig) ([]ClassificationResult, error) {
	cfg.fill()
	split, err := dataset.ThreeWaySplit(ds.Rows(), cfg.TrainFrac, cfg.ValFrac, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The consistency neighbour sets depend only on the split; compute
	// them once and share across every configuration.
	cache := &neighbourCache{
		test:  yNNNeighbours(ds, split.Test),
		valid: yNNNeighbours(ds, split.Validation),
	}

	type job struct {
		rep    Representation
		params string
	}
	var jobs []job
	add := func(rep Representation, params string) { jobs = append(jobs, job{rep, params}) }

	add(FullData{}, "")
	add(&MaskedData{}, "")
	for _, k := range cfg.K {
		add(&SVDRep{K: k}, fmt.Sprintf("K=%d", k))
		add(&SVDRep{K: k, Masked: true}, fmt.Sprintf("K=%d", k))
	}
	for _, opts := range cfg.lfrConfigs() {
		add(&LFRRep{Opts: opts}, fmt.Sprintf("Az=%g,Ax=%g,Ay=%g,K=%d", opts.Az, opts.Ax, opts.Ay, opts.K))
	}
	for _, variant := range []ifair.InitStrategy{ifair.InitRandom, ifair.InitMaskedProtected} {
		for _, opts := range cfg.iFairConfigs(variant) {
			params := fmt.Sprintf("l=%g,m=%g,K=%d", opts.Lambda, opts.Mu, opts.K)
			if cfg.CheckpointDir != "" {
				// One directory per (dataset, variant, configuration):
				// concurrent configurations never share snapshot files, and
				// a rerun of the same study maps every fit back to its own
				// checkpoint.
				dir := filepath.Join(cfg.CheckpointDir, ds.Name,
					fmt.Sprintf("%s-%s", variant, params))
				mgr, err := checkpoint.Open(checkpoint.Config{Dir: dir})
				if err != nil {
					return nil, fmt.Errorf("pipeline: checkpoint dir for %s %s: %w", variant, params, err)
				}
				opts.Checkpoint = mgr
			}
			add(&IFairRep{Opts: opts}, params)
		}
	}

	results, _, err := runJobs(ctx, cfg.Parallel, len(jobs), func(i int) (ClassificationResult, error) {
		r, err := evalClassificationCached(ctx, ds, split, jobs[i].rep, cfg.L2, cache)
		r.Params = jobs[i].params
		if err != nil {
			r.FitError = err.Error()
		}
		return r, nil
	})
	return results, err
}

// ParetoByMethod extracts, per method name, the indices of results that are
// Pareto-optimal with respect to (AUC, yNN) on the test split — the dashed
// fronts of Fig. 3. Results with fit errors are excluded.
func ParetoByMethod(results []ClassificationResult) map[string][]int {
	byMethod := map[string][]int{}
	for i, r := range results {
		if r.FitError == "" {
			byMethod[r.Method] = append(byMethod[r.Method], i)
		}
	}
	fronts := map[string][]int{}
	for method, idx := range byMethod {
		pts := make([]metrics.Point, len(idx))
		for j, i := range idx {
			pts[j] = metrics.Point{Utility: results[i].AUC, Fairness: results[i].YNN}
		}
		for _, j := range metrics.ParetoFront(pts) {
			fronts[method] = append(fronts[method], idx[j])
		}
	}
	return fronts
}

// TuningCriterion is one of the paper's three hyper-parameter selection
// rules for Table III.
type TuningCriterion int

const (
	// MaxUtility selects the configuration with the best validation AUC.
	MaxUtility TuningCriterion = iota
	// MaxFairness selects the best validation consistency.
	MaxFairness
	// Optimal selects the best harmonic mean of validation AUC and
	// consistency.
	Optimal
)

// String implements fmt.Stringer.
func (t TuningCriterion) String() string {
	switch t {
	case MaxUtility:
		return "Max Utility"
	case MaxFairness:
		return "Max Fairness"
	case Optimal:
		return "Optimal"
	default:
		return "unknown"
	}
}

func (t TuningCriterion) score(r ClassificationResult) float64 {
	switch t {
	case MaxUtility:
		return r.ValidAUC
	case MaxFairness:
		return r.ValidYNN
	default:
		return metrics.HarmonicMean(r.ValidAUC, r.ValidYNN)
	}
}

// Table3Row is one (criterion, method) cell group of Table III.
type Table3Row struct {
	Criterion TuningCriterion
	Result    ClassificationResult
}

// Table3 reproduces the paper's Table III on one dataset: the Full Data
// baseline plus LFR, iFair-a and iFair-b under the three tuning criteria.
//
// Table3 is a convenience wrapper around Table3Context with a background
// context.
func Table3(ds *dataset.Dataset, cfg StudyConfig) ([]Table3Row, error) {
	return Table3Context(context.Background(), ds, cfg)
}

// Table3Context is Table3 with cancellation: TradeoffStudyContext
// followed by Table3Rows.
func Table3Context(ctx context.Context, ds *dataset.Dataset, cfg StudyConfig) ([]Table3Row, error) {
	results, err := TradeoffStudyContext(ctx, ds, cfg)
	if err != nil {
		return nil, err
	}
	return Table3Rows(results), nil
}

// Table3Rows selects Table III from a TradeoffStudy result: the Full
// Data baseline, then the best LFR, iFair-a and iFair-b configuration
// under each tuning criterion. It fits nothing, so a caller that already
// holds the Fig. 3 point cloud gets Table III from the same grid.
func Table3Rows(results []ClassificationResult) []Table3Row {
	var rows []Table3Row
	// Baseline row (criterion-independent).
	for _, r := range results {
		if r.Method == "Full Data" {
			rows = append(rows, Table3Row{Criterion: MaxUtility, Result: r})
			break
		}
	}
	for _, crit := range []TuningCriterion{MaxUtility, MaxFairness, Optimal} {
		for _, method := range []string{"LFR", "iFair-a", "iFair-b"} {
			fitted := func(i int) bool { return results[i].Method == method && results[i].FitError == "" }
			if best := bestBy(results, fitted, crit.score); best >= 0 {
				rows = append(rows, Table3Row{Criterion: crit, Result: results[best]})
			}
		}
	}
	return rows
}
