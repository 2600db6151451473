// Package adversarial implements the censored-representation baseline the
// paper discusses in Related Work (Edwards & Storkey 2015; Louizos et al.
// 2015, its references [9] and [22]): representations from which an
// adversary cannot recover the protected attribute.
//
// For linear adversaries the reliable construction is iterative null-space
// projection: repeatedly train a logistic probe to predict the protected
// flag, then project the data onto the orthogonal complement of the
// probe's weight direction. Each round provably removes the probe's
// direction; after enough rounds no linear probe beats the base rate.
// (A naive frozen-adversary minimax alternation merely rotates the leaky
// direction and fails to censor — this formulation removes it.)
//
// These methods optimise group-level obfuscation and carry no
// individual-fairness objective at all, which is precisely the contrast
// the paper draws; the baseline appears in the Fig. 4 and audit extension
// studies.
package adversarial

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/linmodel"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/optimize"
)

// Options configures Fit.
type Options struct {
	// Trace, when non-nil, observes training through the shared engine
	// protocol: the whole procedure reports as restart 0, each
	// probe-and-project round as one iteration event whose F is the
	// probe's accuracy.
	Trace optimize.Trace
}

const (
	// maxRounds bounds the number of probe-and-project iterations.
	maxRounds = 20
	// stopMargin stops the rounds once the probe's training accuracy is
	// within this margin of the majority-class rate.
	stopMargin = 0.02
	// probeL2 is the probe's ridge strength.
	probeL2 = 1e-3
)

// Model is a fitted censoring projection: TransformInto maps X to X·P where P
// projects onto the subspace from which no linear probe recovered the
// protected attribute.
type Model struct {
	// P is the N×N projection matrix.
	P *mat.Dense
}

// ErrNoData is returned for empty input.
var ErrNoData = errors.New("adversarial: no training data")

// Fit runs iterative null-space projection on x with respect to the
// protected flags.
//
// Fit is a convenience wrapper around FitContext with a background
// context: it cannot be cancelled.
func Fit(x *mat.Dense, protected []bool, opts Options) (*Model, error) {
	return FitContext(context.Background(), x, protected, opts)
}

// FitContext is Fit with cancellation and observability. The procedure is
// deterministic and has no random restarts, so it reports through
// opts.Trace as a single restart (index 0) whose iteration events carry
// the probe accuracy of each round. Cancelling ctx stops between rounds
// and returns ctx.Err().
func FitContext(ctx context.Context, x *mat.Dense, protected []bool, opts Options) (*Model, error) {
	m, n := x.Dims()
	if m == 0 || n == 0 {
		return nil, ErrNoData
	}
	if len(protected) != m {
		return nil, fmt.Errorf("adversarial: %d flags for %d rows", len(protected), m)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var nProt int
	for _, p := range protected {
		if p {
			nProt++
		}
	}
	majority := math.Max(float64(nProt), float64(m-nProt)) / float64(m)
	if nProt == 0 || nProt == m {
		// Nothing to censor; the identity projection is already safe.
		return &Model{P: mat.Identity(n)}, nil
	}

	if opts.Trace != nil {
		opts.Trace.RestartStart(0)
	}
	proj := mat.Identity(n)
	current := x.Clone()
	rounds := 0
	probeAcc := 1.0
	censored := false
	for rounds < maxRounds {
		if err := ctx.Err(); err != nil {
			if opts.Trace != nil {
				opts.Trace.RestartEnd(0, optimize.Result{F: probeAcc, Iterations: rounds, Status: optimize.Stopped}, err)
			}
			return nil, err
		}
		probe, err := linmodel.FitLogistic(current, protected, probeL2)
		if err != nil {
			err = fmt.Errorf("adversarial: round %d probe: %w", rounds, err)
			if opts.Trace != nil {
				opts.Trace.RestartEnd(0, optimize.Result{F: probeAcc, Iterations: rounds, Status: optimize.LineSearchFailed}, err)
			}
			return nil, err
		}
		probeAcc = metrics.Accuracy(probe.PredictProba(current), protected)
		if opts.Trace != nil {
			opts.Trace.Iteration(0, optimize.Iteration{Iter: rounds, F: probeAcc})
		}
		if probeAcc <= majority+stopMargin {
			censored = true
			break
		}
		// Normalise the probe direction (bias excluded) and project it
		// out: P ← P·(I − uuᵀ), X ← X·(I − uuᵀ).
		u := probe.Weights[:n]
		norm := mat.Norm2(u)
		if norm < 1e-12 {
			break
		}
		unit := mat.ScaleVec(1/norm, u)
		elim := eliminator(unit)
		proj = mat.Mul(proj, elim)
		current = mat.Mul(current, elim)
		rounds++
	}
	if opts.Trace != nil {
		status := optimize.MaxIterations
		if censored {
			status = optimize.Converged
		}
		opts.Trace.RestartEnd(0, optimize.Result{F: probeAcc, Iterations: rounds, Status: status}, nil)
	}
	return &Model{P: proj}, nil
}

// eliminator returns I − uuᵀ for a unit vector u.
func eliminator(u []float64) *mat.Dense {
	n := len(u)
	e := mat.Identity(n)
	for i := 0; i < n; i++ {
		row := e.Row(i)
		for j := 0; j < n; j++ {
			row[j] -= u[i] * u[j]
		}
	}
	return e
}

// Compile compiles the censoring projection into an immutable serving
// kernel (see internal/kernel) whose row transform is bit-identical to
// mat.Mul(x, P).
func (md *Model) Compile() (*kernel.Projection, error) {
	return kernel.CompileProjection(md.P)
}

// TransformInto maps every row of x into the matching row of dst (which
// must be x.Rows()×P.Cols(), must not share backing storage with x, and
// is fully overwritten) using up to workers goroutines, bit-identical to
// mat.Mul(x, P) for every worker count.
func (md *Model) TransformInto(dst, x *mat.Dense, workers int) error {
	proj, err := md.Compile()
	if err != nil {
		return err
	}
	return proj.TransformInto(dst, x, workers)
}
