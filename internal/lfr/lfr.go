// Package lfr reimplements the Learning Fair Representations model of
// Zemel et al. (ICML 2013) — reference [28] of the paper and its main
// baseline for the classification experiments.
//
// LFR also learns K prototypes with softmax memberships, but optimises a
// three-term objective
//
//	L = A_z·L_z + A_x·L_x + A_y·L_y
//
// where L_x is the reconstruction loss, L_y the log-loss of a classifier
// that predicts the label from prototype memberships via per-prototype
// label scores w_k ∈ (0,1), and L_z the statistical-parity gap of the mean
// memberships between the protected group and its complement. Unlike
// iFair, LFR is therefore tied to one binary label and one pre-specified
// protected group — the very limitations the paper's method removes.
package lfr

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/optimize"
)

// Options configures Fit.
type Options struct {
	// K is the number of prototypes.
	K int
	// Az, Ax, Ay weight statistical parity, reconstruction and prediction
	// loss respectively.
	Az, Ax, Ay float64
	// Restarts selects best-of-N random initialisations. Default 1.
	Restarts int
	// MaxIterations bounds L-BFGS iterations per restart. Default 150.
	MaxIterations int
	// Seed makes training deterministic.
	Seed int64
	// Workers is the number of goroutines evaluating the objective.
	// Values ≤ 1 run sequentially. Evaluation chunks records with
	// internal/par and reduces partials in chunk order, so the loss,
	// gradient and fitted model are bit-identical for every worker count.
	Workers int
	// Trace, when non-nil, observes restart and iteration events.
	Trace optimize.Trace
}

func (o *Options) fill() error {
	if o.K <= 0 {
		return errors.New("lfr: Options.K must be positive")
	}
	if o.Az < 0 || o.Ax < 0 || o.Ay < 0 {
		return errors.New("lfr: loss weights must be non-negative")
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 150
	}
	return nil
}

// Model is a fitted LFR representation.
type Model struct {
	// Prototypes is the K×N prototype matrix.
	Prototypes *mat.Dense
	// W holds the per-prototype label scores in (0, 1).
	W []float64
}

// ErrNoData is returned for empty training input.
var ErrNoData = errors.New("lfr: no training data")

// Fit trains LFR on records x, binary labels y and protected-group
// membership flags.
//
// Fit is a convenience wrapper around FitContext with a background
// context: it cannot be cancelled.
func Fit(x *mat.Dense, y, protected []bool, opts Options) (*Model, error) {
	return FitContext(context.Background(), x, y, protected, opts)
}

// FitContext is Fit with cancellation and observability, sharing the
// engine semantics of ifair.FitContext: restarts run serially with
// per-restart derived seeds, ties break to the lowest restart index, a
// cancelled ctx stops the optimizer within one iteration and returns
// ctx.Err(), and per-restart optimizer errors only surface (joined) when
// every restart fails.
func FitContext(ctx context.Context, x *mat.Dense, y, protected []bool, opts Options) (*Model, error) {
	m, n := x.Dims()
	if m == 0 || n == 0 {
		return nil, ErrNoData
	}
	if len(y) != m || len(protected) != m {
		return nil, errors.New("lfr: labels/protected flags must match row count")
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	models := make([]*Model, opts.Restarts)
	trace := opts.Trace
	best, err := optimize.Restarts(ctx, opts.Restarts, 1, nil,
		func(ctx context.Context, r int) (float64, error) {
			if trace != nil {
				trace.RestartStart(r)
			}
			// The objective carries mutable scratch, so each restart gets
			// its own instance; the inputs are shared read-only.
			obj := newObjective(x, y, protected, opts)
			rng := rand.New(rand.NewSource(optimize.RestartSeed(opts.Seed, r)))
			theta := obj.initialTheta(rng)
			res, err := optimize.LBFGS(obj, theta, optimize.Settings{
				MaxIterations: opts.MaxIterations,
				GradTol:       1e-5,
				Callback:      optimize.ContextCallback(ctx, trace, r),
			})
			if trace != nil {
				trace.RestartEnd(r, res, err)
			}
			if err != nil {
				return math.NaN(), err
			}
			if res.Status == optimize.Stopped {
				return math.NaN(), context.Cause(ctx)
			}
			models[r] = obj.modelFromTheta(res.X)
			return res.F, nil
		})
	if err != nil {
		return nil, err
	}
	return models[best], nil
}

// Compile compiles the fitted model into an immutable serving kernel
// (see internal/kernel): unweighted squared-Euclidean distances with
// softmax memberships, bit-identical to the memberships and
// reconstructions of LFR's training forward pass.
func (md *Model) Compile() (*kernel.CompiledKernel, error) {
	return kernel.Compile(kernel.Spec{Prototypes: md.Prototypes})
}

// TransformInto maps every row of x into the matching row of dst (which
// must be x.Rows()×Cols, must not share backing storage with x, and is
// fully overwritten) using up to workers goroutines, through a compiled
// float64 kernel, bit-identical for every worker count.
func (md *Model) TransformInto(dst, x *mat.Dense, workers int) error {
	kern, err := md.Compile()
	if err != nil {
		return err
	}
	return kern.TransformInto(dst, x, workers)
}

// PredictProba returns LFR's own label predictions ŷ_i = Σ_k u_ik·w_k,
// with the memberships u_i from one compiled float64 kernel. Like the
// linmodel classifiers it panics if x does not have the model's width.
func (md *Model) PredictProba(x *mat.Dense) []float64 {
	kern, err := md.Compile()
	if err != nil {
		panic(err.Error())
	}
	out := make([]float64, x.Rows())
	u := make([]float64, kern.K())
	for i := range out {
		if err := kern.ProbabilitiesInto(u, x.Row(i)); err != nil {
			panic(err.Error())
		}
		var p float64
		for k, uk := range u {
			p += uk * md.W[k]
		}
		out[i] = p
	}
	return out
}
