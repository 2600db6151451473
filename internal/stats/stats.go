// Package stats provides the sampling and descriptive-statistics substrate
// used by the dataset simulators and the synthetic study of Sec. IV of the
// paper: seeded Gaussian and mixture-of-Gaussians sampling (including the
// correlated bivariate Gaussian the paper specifies), standardisation to
// unit variance (Sec. V-B), and a few aggregate helpers.
package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Gaussian2D samples from a bivariate normal with the given means, unit-like
// variances and correlation rho, using the Cholesky factor of the 2×2
// covariance matrix. It matches the paper's synthetic-data recipe: an
// isotropic component (rho = 0) and a correlated component (rho = 0.95).
type Gaussian2D struct {
	MeanX, MeanY float64
	VarX, VarY   float64
	Rho          float64
}

// Sample draws one (x, y) pair.
func (g Gaussian2D) Sample(rng *rand.Rand) (x, y float64) {
	if g.Rho <= -1 || g.Rho >= 1 {
		panic(fmt.Sprintf("stats: correlation %v out of (-1, 1)", g.Rho))
	}
	z1 := rng.NormFloat64()
	z2 := rng.NormFloat64()
	sx := math.Sqrt(g.VarX)
	sy := math.Sqrt(g.VarY)
	x = g.MeanX + sx*z1
	y = g.MeanY + sy*(g.Rho*z1+math.Sqrt(1-g.Rho*g.Rho)*z2)
	return x, y
}

// MixtureComponent pairs a bivariate Gaussian with a mixing weight.
type MixtureComponent struct {
	Weight float64
	Dist   Gaussian2D
}

// Mixture2D is a finite mixture of bivariate Gaussians.
type Mixture2D struct {
	Components []MixtureComponent
}

// Sample draws one point and reports which component generated it.
func (m Mixture2D) Sample(rng *rand.Rand) (x, y float64, component int) {
	var total float64
	for _, c := range m.Components {
		total += c.Weight
	}
	if total <= 0 {
		panic("stats: mixture has no positive-weight components")
	}
	u := rng.Float64() * total
	for i, c := range m.Components {
		if u < c.Weight || i == len(m.Components)-1 {
			x, y = c.Dist.Sample(rng)
			return x, y, i
		}
		u -= c.Weight
	}
	panic("unreachable")
}

// Standardize rescales each column of rows in place to zero mean and unit
// variance, as Sec. V-B requires ("all feature vectors are normalized to
// have unit variance"). Columns with zero variance are left centred at 0.
// It returns the per-column means and standard deviations so the same
// transform can be applied to held-out rows via ApplyStandardize.
func Standardize(rows [][]float64) (means, stds []float64) {
	if len(rows) == 0 {
		return nil, nil
	}
	n := len(rows[0])
	means = make([]float64, n)
	stds = make([]float64, n)
	col := make([]float64, len(rows))
	for j := 0; j < n; j++ {
		for i, r := range rows {
			col[i] = r[j]
		}
		means[j] = Mean(col)
		stds[j] = StdDev(col)
	}
	for _, r := range rows {
		ApplyStandardize(r, r, means, stds)
	}
	return means, stds
}

// ApplyStandardize applies a fitted standardisation to one row:
// dst[j] = (src[j] − means[j]) / stds[j], a zero standard deviation
// counting as 1 (centre only). Standardize, the streamed iFair fit and
// the drift profile all standardise their rows through it, so they share
// one zero-variance rule. dst may alias src.
func ApplyStandardize(dst, src, means, stds []float64) {
	if len(src) != len(means) || len(dst) != len(src) || len(stds) != len(means) {
		panic(fmt.Sprintf("stats: row length %d→%d does not match fit width %d/%d", len(src), len(dst), len(means), len(stds)))
	}
	for j, v := range src {
		s := stds[j]
		if s == 0 {
			s = 1
		}
		dst[j] = (v - means[j]) / s
	}
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool { return rng.Float64() < p }

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
