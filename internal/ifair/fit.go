package ifair

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/optimize"
)

// ErrNoData is returned when Fit is called on an empty matrix.
var ErrNoData = errors.New("ifair: no training data")

// Trace observes a training run; see optimize.Trace. It is re-exported
// here so callers configuring Options.Trace need not import
// internal/optimize.
type Trace = optimize.Trace

// Iteration is one per-iteration progress event; see optimize.Iteration.
type Iteration = optimize.Iteration

// Fit learns an iFair representation of x (M×N, already encoded and
// standardised) by minimising Def. 9 with L-BFGS. It runs opts.Restarts
// independent random initialisations and returns the model with the lowest
// final objective, mirroring the paper's best-of-3 protocol.
//
// Fit is a convenience wrapper around FitContext with a background
// context: it cannot be cancelled. Use FitContext to bound training with a
// deadline or run restarts concurrently.
func Fit(x *mat.Dense, opts Options) (*Model, error) {
	return FitContext(context.Background(), x, opts)
}

// FitContext is Fit with cancellation, deadlines, observability and
// parallel restarts. The opts.Restarts random restarts run concurrently on
// a pool of opts.RestartWorkers goroutines (≤ 1 runs them serially), each
// initialised from a seed derived only from (opts.Seed, restart index), so
// the returned model is bit-identical for every worker count. Ties on the
// final loss break to the lowest restart index.
//
// Cancelling ctx stops every in-flight optimizer within one iteration and
// returns ctx.Err(). A restart whose optimizer fails is skipped: the best
// converged restart still wins, and an error is returned only when every
// restart fails (the per-restart errors joined).
//
// opts.Trace receives restart start/end and per-iteration events.
//
// opts.Checkpoint makes the fit crash-safe: each finished restart is
// persisted immediately and a later call with the same problem resumes —
// skipping persisted restarts and re-running interrupted ones from their
// derived seeds — to a model bit-identical to an uninterrupted run's.
func FitContext(ctx context.Context, x *mat.Dense, opts Options) (*Model, error) {
	m, n := x.Dims()
	if m == 0 || n == 0 {
		return nil, ErrNoData
	}
	if err := opts.fill(m, n); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The fairness pair set is part of the problem, not of a restart:
	// build it once from the base seed and share it read-only.
	base := newObjective(x, opts, rand.New(rand.NewSource(opts.Seed)))

	models := make([]*Model, opts.Restarts)
	iters := make([]int, opts.Restarts)
	trace := opts.Trace
	ckpt := opts.Checkpoint
	var ledger optimize.RestartLedger
	if ckpt != nil {
		if _, err := ckpt.Begin(opts.Seed, opts.Restarts, checkpointFingerprint(x, &opts)); err != nil {
			return nil, err
		}
		ledger = &ckptLedger{mgr: ckpt, n: n, opts: &opts, models: models, iters: iters}
	}
	best, err := optimize.Restarts(ctx, opts.Restarts, opts.RestartWorkers, ledger,
		func(ctx context.Context, r int) (float64, error) {
			if trace != nil {
				trace.RestartStart(r)
			}
			rng := rand.New(rand.NewSource(optimize.RestartSeed(opts.Seed, r)))
			theta := initialTheta(x, opts, rng)
			if r == 0 && opts.WarmStart != nil {
				// Restart 0 continues from the warm-start model; the random
				// draw above still happens so the other restarts' streams are
				// untouched by the substitution.
				theta = warmStartTheta(opts.WarmStart)
			}
			// Drawn whether or not SGD runs, so the initialisation stream
			// is identical across optimiser choices.
			shuffleSeed := rng.Int63()
			obj := base
			if opts.RestartWorkers > 1 {
				obj = base.clone() // private scratch per concurrent restart
			}
			settings := optimize.Settings{
				MaxIterations: opts.MaxIterations,
				GradTol:       1e-5,
				Callback:      optimize.ContextCallback(ctx, trace, r),
			}
			if opts.BatchSize > 0 {
				settings.MaxIterations = opts.Epochs
			}
			var res optimize.Result
			var err error
			switch {
			case opts.BatchSize > 0:
				res, err = optimize.SGD(obj, theta, optimize.SGDSettings{
					Settings:  settings,
					BatchSize: opts.BatchSize,
					LearnRate: opts.LearnRate,
					Seed:      shuffleSeed,
				})
			default:
				res, err = optimize.LBFGS(obj, theta, settings)
			}
			if trace != nil {
				trace.RestartEnd(r, res, err)
			}
			if err != nil {
				return math.NaN(), err
			}
			if res.Status == optimize.Stopped {
				// The optimizer was cut short by cancellation; its point is
				// not a finished restart.
				return math.NaN(), context.Cause(ctx)
			}
			model := modelFromTheta(res.X, n, opts)
			model.Loss = res.F
			models[r] = model
			iters[r] = res.Iterations
			return res.F, nil
		})
	if err != nil {
		return nil, err
	}
	return models[best], nil
}

// initialTheta draws a packed parameter vector: first the α
// reparameterisation a (α = a²), then the K prototype rows.
func initialTheta(x *mat.Dense, opts Options, rng *rand.Rand) []float64 {
	m, n := x.Dims()
	theta := make([]float64, n+opts.K*n)

	// a-vector: α_n = a_n², so draw a_n = sqrt(α_n) for α_n ~ U(0,1).
	isProt := make([]bool, n)
	for _, p := range opts.Protected {
		isProt[p] = true
	}
	for j := 0; j < n; j++ {
		alpha := rng.Float64()
		if opts.Init == InitMaskedProtected && isProt[j] {
			alpha = nearZeroAlpha
		}
		theta[j] = math.Sqrt(alpha)
	}

	// prototypes: jittered training records
	for k := 0; k < opts.K; k++ {
		row := theta[n+k*n : n+(k+1)*n]
		src := x.Row(rng.Intn(m))
		for j := range row {
			row[j] = src[j] + 0.1*rng.NormFloat64()
		}
	}
	return theta
}

// warmStartTheta packs a fitted model back into the optimizer's
// parameter vector: a_j = sqrt(α_j) inverts the α = a² reparameterisation
// (α is non-negative by construction, so the root is always real), and
// the prototype rows are copied verbatim. Evaluating the objective at
// this point reproduces the warm-start model's behaviour exactly, so a
// monotone optimizer can only improve on it.
func warmStartTheta(ws *Model) []float64 {
	n := ws.Dims()
	theta := make([]float64, n+ws.K()*n)
	for j, a := range ws.Alpha {
		theta[j] = math.Sqrt(a)
	}
	copy(theta[n:], ws.Prototypes.Data())
	return theta
}

func modelFromTheta(theta []float64, n int, opts Options) *Model {
	alpha := make([]float64, n)
	for j := 0; j < n; j++ {
		alpha[j] = theta[j] * theta[j]
	}
	protos := mat.NewDense(opts.K, n)
	copy(protos.Data(), theta[n:])
	return &Model{Prototypes: protos, Alpha: alpha, P: 2, Kernel: ExpKernel}
}
