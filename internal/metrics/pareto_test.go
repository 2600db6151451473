package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParetoFrontSimple(t *testing.T) {
	pts := []Point{
		{Utility: 0.9, Fairness: 0.5}, // front
		{Utility: 0.5, Fairness: 0.9}, // front
		{Utility: 0.4, Fairness: 0.4}, // dominated by both
		{Utility: 0.7, Fairness: 0.7}, // front
	}
	got := ParetoFront(pts)
	want := map[int]bool{0: true, 1: true, 3: true}
	if len(got) != 3 {
		t.Fatalf("front = %v, want 3 points", got)
	}
	for _, i := range got {
		if !want[i] {
			t.Fatalf("front contains dominated point %d", i)
		}
	}
}

func TestParetoFrontDuplicatesSurvive(t *testing.T) {
	pts := []Point{{Utility: 1, Fairness: 1}, {Utility: 1, Fairness: 1}}
	if got := ParetoFront(pts); len(got) != 2 {
		t.Fatalf("identical points should both be non-dominated, got %v", got)
	}
}

func TestParetoFrontEmpty(t *testing.T) {
	if got := ParetoFront(nil); got != nil {
		t.Fatalf("front of empty = %v, want nil", got)
	}
}

// Property: no point on the front dominates another front point, and every
// off-front point is dominated by some front point (for distinct points).
func TestParetoFrontCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Utility: rng.Float64(), Fairness: rng.Float64()}
		}
		front := ParetoFront(pts)
		inFront := make(map[int]bool)
		for _, i := range front {
			inFront[i] = true
		}
		for _, i := range front {
			for _, j := range front {
				if i != j && dominates(pts[i], pts[j]) {
					return false
				}
			}
		}
		for i := range pts {
			if inFront[i] {
				continue
			}
			found := false
			for _, j := range front {
				if dominates(pts[j], pts[i]) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
