package optimize

import (
	"fmt"
	"math"
)

// NumericalGradient fills grad with a central-difference approximation of
// ∇f at x. f must not mutate x. The step h defaults to 1e-6 when h <= 0.
//
// It is the reference the tests check every analytic gradient against
// (see CheckGradient); no training path uses it.
func NumericalGradient(f func(x []float64) float64, x []float64, grad []float64, h float64) {
	if h <= 0 {
		h = 1e-6
	}
	if len(grad) != len(x) {
		panic(fmt.Sprintf("optimize: gradient length %d does not match x length %d", len(grad), len(x)))
	}
	xi := append([]float64(nil), x...)
	for i := range x {
		orig := xi[i]
		xi[i] = orig + h
		fp := f(xi)
		xi[i] = orig - h
		fm := f(xi)
		xi[i] = orig
		grad[i] = (fp - fm) / (2 * h)
	}
}

// CheckGradient compares the analytic gradient produced by obj against a
// central-difference approximation at x. It returns the largest relative
// discrepancy max_i |g_a − g_n| / max(1, |g_a|, |g_n|).
func CheckGradient(obj Objective, x []float64, h float64) float64 {
	n := len(x)
	analytic := make([]float64, n)
	obj.Eval(append([]float64(nil), x...), analytic)

	numeric := make([]float64, n)
	scratch := make([]float64, n)
	NumericalGradient(func(p []float64) float64 {
		return obj.Eval(p, scratch)
	}, x, numeric, h)

	var worst float64
	for i := 0; i < n; i++ {
		denom := math.Max(1, math.Max(math.Abs(analytic[i]), math.Abs(numeric[i])))
		if rel := math.Abs(analytic[i]-numeric[i]) / denom; rel > worst {
			worst = rel
		}
	}
	return worst
}
