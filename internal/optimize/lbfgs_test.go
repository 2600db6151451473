package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quadratic builds f(x) = Σ c_i (x_i − t_i)², a strictly convex bowl.
func quadratic(c, t []float64) ObjectiveFunc {
	return func(x, grad []float64) float64 {
		var f float64
		for i := range x {
			d := x[i] - t[i]
			f += c[i] * d * d
			grad[i] = 2 * c[i] * d
		}
		return f
	}
}

func rosenbrock(x, grad []float64) float64 {
	// f = Σ 100(x_{i+1} − x_i²)² + (1 − x_i)², minimum at all ones.
	var f float64
	for i := range grad {
		grad[i] = 0
	}
	for i := 0; i < len(x)-1; i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		f += 100*a*a + b*b
		grad[i] += -400*x[i]*a - 2*b
		grad[i+1] += 200 * a
	}
	return f
}

func TestLBFGSQuadratic(t *testing.T) {
	obj := quadratic([]float64{1, 10, 100}, []float64{3, -2, 0.5})
	res, err := LBFGS(obj, []float64{0, 0, 0}, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -2, 0.5}
	for i, w := range want {
		if math.Abs(res.X[i]-w) > 1e-5 {
			t.Fatalf("x[%d] = %v, want %v (status %v)", i, res.X[i], w, res.Status)
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	res, err := LBFGS(ObjectiveFunc(rosenbrock), []float64{-1.2, 1, -1.2, 1}, Settings{MaxIterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-4 {
			t.Fatalf("x[%d] = %v, want 1 (status %v, f=%v)", i, v, res.Status, res.F)
		}
	}
}

func TestLBFGSAlreadyConverged(t *testing.T) {
	obj := quadratic([]float64{1}, []float64{5})
	res, err := LBFGS(obj, []float64{5}, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Converged || res.Iterations != 0 {
		t.Fatalf("status = %v after %d iters, want immediate convergence", res.Status, res.Iterations)
	}
}

func TestLBFGSEmptyProblem(t *testing.T) {
	if _, err := LBFGS(ObjectiveFunc(func(x, g []float64) float64 { return 0 }), nil, Settings{}); err != ErrEmptyProblem {
		t.Fatalf("err = %v, want ErrEmptyProblem", err)
	}
}

func TestLBFGSZeroLengthInitialPoint(t *testing.T) {
	// A non-nil but empty x0 is the same empty problem as nil.
	if _, err := LBFGS(ObjectiveFunc(func(x, g []float64) float64 { return 0 }), []float64{}, Settings{}); err != ErrEmptyProblem {
		t.Fatalf("err = %v, want ErrEmptyProblem", err)
	}
}

func TestLBFGSNonFiniteStart(t *testing.T) {
	obj := ObjectiveFunc(func(x, g []float64) float64 { return math.NaN() })
	res, err := LBFGS(obj, []float64{1}, Settings{})
	if err == nil {
		t.Fatal("expected error for NaN objective at start")
	}
	if res.Status != Diverged {
		t.Fatalf("Status = %v, want Diverged", res.Status)
	}
}

func TestLBFGSDoesNotModifyX0(t *testing.T) {
	x0 := []float64{4, 4}
	obj := quadratic([]float64{1, 1}, []float64{0, 0})
	if _, err := LBFGS(obj, x0, Settings{}); err != nil {
		t.Fatal(err)
	}
	if x0[0] != 4 || x0[1] != 4 {
		t.Fatalf("x0 mutated to %v", x0)
	}
}

func TestLBFGSMaxIterationsRespected(t *testing.T) {
	res, err := LBFGS(ObjectiveFunc(rosenbrock), []float64{-1.2, 1}, Settings{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Fatalf("iterations = %d, want ≤ 3", res.Iterations)
	}
}

// Property: from any start, L-BFGS on a random convex quadratic reaches the
// known minimiser.
func TestLBFGSRandomQuadratics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		c := make([]float64, n)
		target := make([]float64, n)
		x0 := make([]float64, n)
		for i := 0; i < n; i++ {
			c[i] = 0.5 + rng.Float64()*10
			target[i] = rng.NormFloat64() * 3
			x0[i] = rng.NormFloat64() * 3
		}
		res, err := LBFGS(quadratic(c, target), x0, Settings{GradTol: 1e-8})
		if err != nil {
			return false
		}
		for i := range target {
			if math.Abs(res.X[i]-target[i]) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the final objective value never exceeds the initial one.
func TestLBFGSMonotoneOverall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x0 := []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		g := make([]float64, 2)
		f0 := rosenbrock(x0, g)
		res, err := LBFGS(ObjectiveFunc(rosenbrock), x0, Settings{MaxIterations: 50})
		return err == nil && res.F <= f0+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Converged:        "converged",
		MaxIterations:    "max iterations",
		LineSearchFailed: "line search failed",
		SmallImprovement: "small improvement",
		Status(99):       "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestLBFGSIllConditionedQuadratic(t *testing.T) {
	// A condition number of 1000 costs steepest descent thousands of
	// evaluations to shrink the gradient by seven orders of magnitude;
	// the quasi-Newton curvature model brings L-BFGS there in a few
	// dozen. (A tighter GradTol would end on the small-improvement test
	// first: near the minimum f falls below funcTol.)
	quad := quadratic([]float64{1, 1000}, []float64{0, 0})
	evals := 0
	obj := ObjectiveFunc(func(x, grad []float64) float64 {
		evals++
		return quad.Eval(x, grad)
	})
	res, err := LBFGS(obj, []float64{100, 1}, Settings{GradTol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Converged {
		t.Fatalf("status = %v, want converged", res.Status)
	}
	if evals > 50 {
		t.Fatalf("L-BFGS needed %d evals, want ≤ 50", evals)
	}
}
