package linmodel

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// GaussianNB is a Gaussian naive-Bayes classifier. It exists to back the
// paper's application-agnosticism claim: iFair representations are learned
// once and can feed *arbitrary* downstream classifiers, not just the
// logistic regression used in the main experiments.
type GaussianNB struct {
	// Prior is P(y = 1).
	Prior float64
	// MeanPos, MeanNeg, VarPos, VarNeg are per-feature class-conditional
	// Gaussian parameters.
	MeanPos, MeanNeg []float64
	VarPos, VarNeg   []float64
}

// varFloor keeps class-conditional variances bounded away from zero so
// constant features cannot produce infinite likelihoods.
const varFloor = 1e-9

// FitGaussianNB estimates class priors and per-feature class-conditional
// Gaussians from x and boolean labels y.
func FitGaussianNB(x *mat.Dense, y []bool) (*GaussianNB, error) {
	m, n := x.Dims()
	if m == 0 || n == 0 {
		return nil, ErrNoData
	}
	if len(y) != m {
		panic(fmt.Sprintf("linmodel: %d labels for %d rows", len(y), m))
	}
	model := &GaussianNB{
		MeanPos: make([]float64, n),
		MeanNeg: make([]float64, n),
		VarPos:  make([]float64, n),
		VarNeg:  make([]float64, n),
	}
	nPos, nNeg := 0, 0
	for i := 0; i < m; i++ {
		row := x.Row(i)
		if y[i] {
			nPos++
			for j, v := range row {
				model.MeanPos[j] += v
			}
		} else {
			nNeg++
			for j, v := range row {
				model.MeanNeg[j] += v
			}
		}
	}
	if nPos == 0 || nNeg == 0 {
		return nil, fmt.Errorf("linmodel: naive Bayes needs both classes (pos=%d, neg=%d)", nPos, nNeg)
	}
	for j := 0; j < n; j++ {
		model.MeanPos[j] /= float64(nPos)
		model.MeanNeg[j] /= float64(nNeg)
	}
	for i := 0; i < m; i++ {
		row := x.Row(i)
		if y[i] {
			for j, v := range row {
				d := v - model.MeanPos[j]
				model.VarPos[j] += d * d
			}
		} else {
			for j, v := range row {
				d := v - model.MeanNeg[j]
				model.VarNeg[j] += d * d
			}
		}
	}
	for j := 0; j < n; j++ {
		model.VarPos[j] = model.VarPos[j]/float64(nPos) + varFloor
		model.VarNeg[j] = model.VarNeg[j]/float64(nNeg) + varFloor
	}
	model.Prior = float64(nPos) / float64(m)
	return model, nil
}

// PredictProba returns P(y = 1 | x) for each row of x.
func (g *GaussianNB) PredictProba(x *mat.Dense) []float64 {
	m, n := x.Dims()
	if n != len(g.MeanPos) {
		panic(fmt.Sprintf("linmodel: %d features, model has %d", n, len(g.MeanPos)))
	}
	out := make([]float64, m)
	logPrior := math.Log(g.Prior) - math.Log(1-g.Prior)
	for i := 0; i < m; i++ {
		row := x.Row(i)
		logit := logPrior
		for j, v := range row {
			logit += logGauss(v, g.MeanPos[j], g.VarPos[j]) - logGauss(v, g.MeanNeg[j], g.VarNeg[j])
		}
		out[i] = sigmoid(logit)
	}
	return out
}

// logGauss is the log density of N(mean, variance) at v, dropping the
// −½log(2π) constant, which is shared by both classes and cancels in the
// likelihood ratio; the variance-dependent term does not cancel and stays.
func logGauss(v, mean, variance float64) float64 {
	d := v - mean
	return -0.5*math.Log(variance) - d*d/(2*variance)
}
