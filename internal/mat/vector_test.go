package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestScaleVec(t *testing.T) {
	if got := ScaleVec(2, []float64{1, -3}); got[1] != -6 {
		t.Fatalf("ScaleVec = %v", got)
	}
}

func TestSqDist(t *testing.T) {
	if got := SqDist([]float64{0, 0}, []float64{3, 4}); got != 25 {
		t.Fatalf("SqDist = %v, want 25", got)
	}
}

// Property: squared distance is symmetric and non-negative.
func TestSqDistSymmetricNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomVec(rng, 5)
		b := randomVec(rng, 5)
		d1, d2 := SqDist(a, b), SqDist(b, a)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
