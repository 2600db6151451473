// Package optimize implements the unconstrained optimisation substrate the
// paper relies on: the limited-memory BFGS algorithm of Liu & Nocedal
// (reference [21] of the paper) with a strong-Wolfe line search for
// full-batch training, mini-batch SGD for datasets too large for it, and
// a finite-difference gradient checker used to validate every analytic
// gradient in the repository.
package optimize

import (
	"errors"
	"math"
)

// Objective is a smooth scalar function of a parameter vector. Eval must
// return the function value at x and write ∇f(x) into grad (which has the
// same length as x). Implementations must not retain x or grad.
type Objective interface {
	Eval(x []float64, grad []float64) float64
}

// ObjectiveFunc adapts a plain function to the Objective interface.
type ObjectiveFunc func(x, grad []float64) float64

// Eval implements Objective.
func (f ObjectiveFunc) Eval(x, grad []float64) float64 { return f(x, grad) }

// Status reports why an optimisation run stopped.
type Status int

const (
	// Converged means the gradient-norm tolerance was met.
	Converged Status = iota
	// MaxIterations means the iteration budget was exhausted.
	MaxIterations
	// LineSearchFailed means no acceptable step could be found; the best
	// point so far is returned.
	LineSearchFailed
	// SmallImprovement means successive function values stopped changing
	// beyond the relative tolerance.
	SmallImprovement
	// Stopped means Settings.Callback asked the run to stop early (for
	// example because a context was cancelled); the best point so far is
	// returned.
	Stopped
	// Diverged means the iterates left the region where the objective is
	// finite (NaN/Inf function values or gradients). The last finite
	// point is returned — never the poisoned parameters.
	Diverged
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Converged:
		return "converged"
	case MaxIterations:
		return "max iterations"
	case LineSearchFailed:
		return "line search failed"
	case SmallImprovement:
		return "small improvement"
	case Stopped:
		return "stopped by callback"
	case Diverged:
		return "diverged to non-finite values"
	default:
		return "unknown"
	}
}

// Result is the outcome of an optimisation run.
type Result struct {
	X          []float64 // final parameters
	F          float64   // final objective value
	Iterations int       // number of outer iterations performed
	Status     Status
}

// Settings controls the optimizer. The zero value selects sensible
// defaults.
type Settings struct {
	// MaxIterations bounds the outer iterations. Default 200.
	MaxIterations int
	// GradTol stops when ‖∇f‖∞ ≤ GradTol. Default 1e-6.
	GradTol float64
	// Callback, when non-nil, is invoked after every accepted outer
	// iteration with that iteration's progress. Returning true stops the
	// run at the current point with Status Stopped. Both LBFGS and SGD
	// (once per epoch) honour it, so cancellation and tracing work
	// identically across optimizers.
	Callback func(Iteration) (stop bool)
}

func (s *Settings) fill() {
	if s.MaxIterations <= 0 {
		s.MaxIterations = 200
	}
	if s.GradTol <= 0 {
		s.GradTol = 1e-6
	}
}

// funcTol stops a run when |f_k − f_{k−1}| ≤ funcTol·(1+|f_k|).
const funcTol = 1e-10

// lbfgsMemory is the number of (s, y) correction pairs L-BFGS keeps.
const lbfgsMemory = 10

// ErrEmptyProblem is returned when the initial point has zero length.
var ErrEmptyProblem = errors.New("optimize: empty parameter vector")

// LBFGS minimises obj starting from x0 using limited-memory BFGS with a
// strong-Wolfe line search. x0 is not modified.
//
// Non-finite territory is never entered: a line-search trial whose value
// or gradient holds a NaN or ±Inf is rejected like an overlong step
// (−Inf included, though it would pass any decrease test). When the
// search then finds no acceptable step, the run stops with Status
// Diverged and the last finite iterate — poisoned parameters are never
// returned. A non-finite value or gradient at x0 is an error, also with
// Status Diverged.
func LBFGS(obj Objective, x0 []float64, settings Settings) (Result, error) {
	settings.fill()
	n := len(x0)
	if n == 0 {
		return Result{}, ErrEmptyProblem
	}

	x := append([]float64(nil), x0...)
	grad := make([]float64, n)
	evals := 0
	eval := func(p []float64, g []float64) float64 {
		evals++
		return obj.Eval(p, g)
	}

	f := eval(x, grad)
	if !finite(f, grad) {
		return Result{X: x, F: f, Status: Diverged},
			errors.New("optimize: objective is not finite at the initial point")
	}

	type pair struct {
		s, y []float64
		rho  float64
	}
	var history []pair
	dir := make([]float64, n)
	xNew := make([]float64, n)
	gNew := make([]float64, n)

	result := func(status Status, iter int) Result {
		return Result{X: x, F: f, Iterations: iter, Status: status}
	}

	for iter := 0; iter < settings.MaxIterations; iter++ {
		if infNorm(grad) <= settings.GradTol {
			return result(Converged, iter), nil
		}

		// Two-loop recursion: dir = −H·∇f.
		copy(dir, grad)
		alphas := make([]float64, len(history))
		for i := len(history) - 1; i >= 0; i-- {
			h := history[i]
			alphas[i] = h.rho * dot(h.s, dir)
			axpy(dir, -alphas[i], h.y)
		}
		if len(history) > 0 {
			last := history[len(history)-1]
			gamma := dot(last.s, last.y) / dot(last.y, last.y)
			scale(dir, gamma)
		}
		for i := 0; i < len(history); i++ {
			h := history[i]
			beta := h.rho * dot(h.y, dir)
			axpy(dir, alphas[i]-beta, h.s)
		}
		negate(dir)

		// The direction must be a descent direction; if numerical noise
		// breaks that, fall back to steepest descent.
		if dot(dir, grad) >= 0 {
			for i := range dir {
				dir[i] = -grad[i]
			}
			history = history[:0]
		}

		step0 := 1.0
		if iter == 0 {
			// First step: scale to a unit-ish move.
			if gn := norm2(grad); gn > 0 {
				step0 = math.Min(1, 1/gn)
			}
		}
		step, fNew, ok, sawNonFinite := wolfeLineSearch(eval, x, f, grad, dir, step0, xNew, gNew)
		if !ok {
			if sawNonFinite {
				return result(Diverged, iter), nil
			}
			return result(LineSearchFailed, iter), nil
		}

		// Update the correction history.
		s := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			s[i] = step * dir[i]
			y[i] = gNew[i] - grad[i]
		}
		if sy := dot(s, y); sy > 1e-12 {
			history = append(history, pair{s: s, y: y, rho: 1 / sy})
			if len(history) > lbfgsMemory {
				history = history[1:]
			}
		}

		improvement := math.Abs(f - fNew)
		copy(x, xNew)
		copy(grad, gNew)
		f = fNew

		if settings.Callback != nil {
			stop := settings.Callback(Iteration{
				Iter: iter, F: f, GradNorm: infNorm(grad), Step: step, Evals: evals,
			})
			if stop {
				return result(Stopped, iter+1), nil
			}
		}
		if improvement <= funcTol*(1+math.Abs(f)) {
			return result(SmallImprovement, iter+1), nil
		}
	}
	return result(MaxIterations, settings.MaxIterations), nil
}

// finite reports whether an evaluation's value f and gradient g are all
// finite.
func finite(f float64, g []float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0) && allFinite(g)
}

// allFinite reports whether every entry of v is finite.
func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// wolfeLineSearch finds a step length satisfying the strong Wolfe
// conditions along dir from x, writing the accepted point and gradient into
// xOut and gOut. It returns the step, the new function value, whether an
// acceptable step was found and, when none was, whether any trial
// evaluated to a NaN or ±Inf value or gradient.
func wolfeLineSearch(
	eval func(x, g []float64) float64,
	x []float64, f0 float64, g0 []float64, dir []float64,
	step0 float64, xOut, gOut []float64,
) (step, fNew float64, ok, sawNonFinite bool) {
	const (
		c1       = 1e-4
		c2       = 0.9
		maxTries = 40
	)
	d0 := dot(g0, dir) // must be < 0
	if d0 >= 0 {
		return 0, f0, false, false
	}

	lo, hi := 0.0, math.Inf(1)
	step = step0
	for try := 0; try < maxTries; try++ {
		for i := range x {
			xOut[i] = x[i] + step*dir[i]
		}
		fNew = eval(xOut, gOut)
		switch {
		case !finite(fNew, gOut):
			sawNonFinite = true
			hi = step
		case fNew > f0+c1*step*d0:
			hi = step // too long
		default:
			dNew := dot(gOut, dir)
			if math.Abs(dNew) <= -c2*d0 {
				return step, fNew, true, false // strong Wolfe satisfied
			}
			if dNew >= 0 {
				hi = step
			} else {
				lo = step
			}
		}
		if math.IsInf(hi, 1) {
			step *= 2
		} else {
			step = (lo + hi) / 2
		}
		if step <= 1e-18 {
			break
		}
	}
	// Accept any simple-decrease point as a last resort.
	for i := range x {
		xOut[i] = x[i] + step*dir[i]
	}
	fNew = eval(xOut, gOut)
	fin := finite(fNew, gOut)
	if fin && fNew < f0 {
		return step, fNew, true, false
	}
	return 0, f0, false, sawNonFinite || !fin
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(dst []float64, c float64, src []float64) {
	for i := range dst {
		dst[i] += c * src[i]
	}
}

func scale(v []float64, c float64) {
	for i := range v {
		v[i] *= c
	}
}

func negate(v []float64) {
	for i := range v {
		v[i] = -v[i]
	}
}

func infNorm(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }
