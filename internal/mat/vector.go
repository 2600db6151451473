package mat

import (
	"fmt"
	"math"
)

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// ScaleVec computes dst = c*src, allocating dst.
func ScaleVec(c float64, src []float64) []float64 {
	out := make([]float64, len(src))
	for i, v := range src {
		out[i] = c * v
	}
	return out
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: SqDist length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
