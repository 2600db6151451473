// Package linmodel implements the downstream predictive models of the
// paper's evaluation (Sec. V-B): a standard logistic-regression classifier
// for the classification task and a linear/ridge regression for the
// learning-to-rank task. Both are trained from scratch on top of the
// repository's L-BFGS optimizer and linear-algebra kernel.
package linmodel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/optimize"
)

// Logistic is a binary logistic-regression classifier with L2
// regularisation, trained by minimising the regularised negative
// log-likelihood with L-BFGS.
type Logistic struct {
	// Weights holds the learned coefficients; the last entry is the
	// intercept.
	Weights []float64
}

// ErrNoData is returned when a model is fitted on an empty matrix.
var ErrNoData = errors.New("linmodel: no training data")

// FitLogistic trains a logistic-regression model on x (M×N) and boolean
// labels y.
func FitLogistic(x *mat.Dense, y []bool, l2 float64) (*Logistic, error) {
	m, n := x.Dims()
	if m == 0 || n == 0 {
		return nil, ErrNoData
	}
	if len(y) != m {
		panic(fmt.Sprintf("linmodel: %d labels for %d rows", len(y), m))
	}

	obj := optimize.ObjectiveFunc(func(w, grad []float64) float64 {
		for i := range grad {
			grad[i] = 0
		}
		var loss float64
		for i := 0; i < m; i++ {
			row := x.Row(i)
			z := w[n] // intercept
			for j, v := range row {
				z += w[j] * v
			}
			p := sigmoid(z)
			var target float64
			if y[i] {
				target = 1
			}
			loss += logLoss(p, target)
			diff := p - target
			for j, v := range row {
				grad[j] += diff * v
			}
			grad[n] += diff
		}
		inv := 1 / float64(m)
		loss *= inv
		for i := range grad {
			grad[i] *= inv
		}
		for j := 0; j < n; j++ { // no penalty on the intercept
			loss += 0.5 * l2 * w[j] * w[j]
			grad[j] += l2 * w[j]
		}
		return loss
	})

	res, err := optimize.LBFGS(obj, make([]float64, n+1), optimize.Settings{GradTol: 1e-6})
	if err != nil {
		return nil, err
	}
	return &Logistic{Weights: res.X}, nil
}

// PredictProba returns P(y=1|x) for each row of x.
func (l *Logistic) PredictProba(x *mat.Dense) []float64 {
	m, n := x.Dims()
	if n+1 != len(l.Weights) {
		panic(fmt.Sprintf("linmodel: %d features, model has %d weights", n, len(l.Weights)))
	}
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		z := l.Weights[n]
		for j, v := range x.Row(i) {
			z += l.Weights[j] * v
		}
		out[i] = sigmoid(z)
	}
	return out
}

// Predict returns thresholded boolean predictions (p ≥ 0.5).
func (l *Logistic) Predict(x *mat.Dense) []bool {
	proba := l.PredictProba(x)
	out := make([]bool, len(proba))
	for i, p := range proba {
		out[i] = p >= 0.5
	}
	return out
}

func sigmoid(z float64) float64 {
	// Numerically stable logistic function.
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// logLoss is the cross-entropy −t·log p − (1−t)·log(1−p) with clamping to
// keep the objective finite under separation.
func logLoss(p, t float64) float64 {
	const eps = 1e-12
	p = math.Min(math.Max(p, eps), 1-eps)
	return -t*math.Log(p) - (1-t)*math.Log(1-p)
}
