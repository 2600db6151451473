package repro

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly the way the README
// quickstart does: simulate data, learn a representation, transform,
// measure.
func TestFacadeEndToEnd(t *testing.T) {
	ds := Credit(ClassificationConfig{Records: 300, Seed: 1})
	model, err := Fit(ds.X, Options{
		K:         5,
		Lambda:    1,
		Mu:        1,
		Protected: ds.ProtectedCols,
		Init:      IFairB,
		Fairness:  SampledFairness,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	xt, err := Transform(model, ds.X)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := xt.Dims(); r != ds.Rows() || c != ds.Cols() {
		t.Fatalf("transform dims %d×%d", r, c)
	}
}

// facadeTrace counts optimizer events through the public Trace surface.
type facadeTrace struct {
	mu                  sync.Mutex
	starts, iters, ends int
}

func (f *facadeTrace) RestartStart(int) {
	f.mu.Lock()
	f.starts++
	f.mu.Unlock()
}

func (f *facadeTrace) Iteration(int, Iteration) {
	f.mu.Lock()
	f.iters++
	f.mu.Unlock()
}

func (f *facadeTrace) RestartEnd(int, OptResult, error) {
	f.mu.Lock()
	f.ends++
	f.mu.Unlock()
}

// TestFacadeContextAPI exercises FitContext end to end: parallel restarts
// reproduce the serial model bit for bit, the Trace observes every
// restart, and a cancelled context aborts the fit.
func TestFacadeContextAPI(t *testing.T) {
	ds := Credit(ClassificationConfig{Records: 200, Seed: 3})
	opts := Options{
		K: 4, Lambda: 1, Mu: 1,
		Protected: ds.ProtectedCols,
		Init:      IFairB, Fairness: SampledFairness,
		Restarts: 4, MaxIterations: 30, Seed: 9,
	}
	serial, err := Fit(ds.X, opts)
	if err != nil {
		t.Fatal(err)
	}

	tr := &facadeTrace{}
	par := opts
	par.RestartWorkers = 4
	par.Trace = tr
	parallel, err := FitContext(context.Background(), ds.X, par)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Loss != parallel.Loss {
		t.Fatalf("parallel loss %v != serial loss %v", parallel.Loss, serial.Loss)
	}
	if tr.starts != opts.Restarts || tr.ends != opts.Restarts || tr.iters == 0 {
		t.Fatalf("trace saw starts=%d iters=%d ends=%d", tr.starts, tr.iters, tr.ends)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FitContext(ctx, ds.X, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled FitContext err = %v, want context.Canceled", err)
	}
	if _, err := FitCensoredContext(ctx, ds.X, ds.Protected, CensoredOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled FitCensoredContext err = %v, want context.Canceled", err)
	}
	if _, err := FitLFRContext(ctx, ds.X, ds.Label, ds.Protected, LFROptions{K: 3, Az: 1, Ax: 1, Ay: 1, MaxIterations: 10, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled FitLFRContext err = %v, want context.Canceled", err)
	}
}

// TestFacadeCheckedTransforms covers the error-returning transform surface
// the quickstart uses.
func TestFacadeCheckedTransforms(t *testing.T) {
	ds := Credit(ClassificationConfig{Records: 120, Seed: 8})
	model, err := Fit(ds.X, Options{K: 3, Lambda: 1, Mu: 1, Protected: ds.ProtectedCols, Seed: 1, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	xt, err := Transform(model, ds.X)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := xt.Dims(); r != ds.Rows() || c != ds.Cols() {
		t.Fatalf("Transform dims %d×%d", r, c)
	}
	row, err := TransformRow(model, ds.X.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	for j := range row {
		if row[j] != xt.At(0, j) {
			t.Fatal("TransformRow disagrees with Transform")
		}
	}
	u, err := Probabilities(model, ds.X.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range u {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("membership distribution sums to %v", sum)
	}
	if _, err := TransformRow(model, []float64{1}); err == nil {
		t.Fatal("short record should error, not panic")
	}
	if _, err := Probabilities(model, make([]float64, ds.Cols()+1)); err == nil {
		t.Fatal("long record should error, not panic")
	}
	if _, err := Transform(model, NewMatrix(2, ds.Cols()+1)); err == nil {
		t.Fatal("wrong-width matrix should error, not panic")
	}
}

func TestFacadeBaselines(t *testing.T) {
	ds := Compas(ClassificationConfig{Records: 200, Seed: 2})
	lfrModel, err := FitLFR(ds.X, ds.Label, ds.Protected, LFROptions{K: 4, Az: 1, Ax: 1, Ay: 1, MaxIterations: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := lfrModel.TransformInto(NewMatrix(200, ds.Cols()), ds.X, 1); err != nil {
		t.Fatalf("LFR transform: %v", err)
	}

	rr, err := FairReRank([]float64{0.9, 0.4, 0.7}, []bool{false, true, false}, 0, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Ranking) != 3 {
		t.Fatalf("ranking length %d", len(rr.Ranking))
	}
}

func TestFacadeMetrics(t *testing.T) {
	if got := Accuracy([]float64{0.9, 0.1}, []bool{true, false}); got != 1 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := KendallTau([]float64{1, 2, 3}, []float64{1, 2, 3}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("KendallTau = %v", got)
	}
}

func TestFacadeSplitAndMatrix(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 1) != 4 {
		t.Fatal("MatrixFromRows broken")
	}
	if NewMatrix(2, 3).Cols() != 3 {
		t.Fatal("NewMatrix broken")
	}
	s, err := ThreeWaySplit(30, 0.5, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Train)+len(s.Validation)+len(s.Test) != 30 {
		t.Fatal("split does not partition")
	}
}

func TestFacadeSerializationRoundTrip(t *testing.T) {
	ds := Credit(ClassificationConfig{Records: 120, Seed: 4})
	model, err := Fit(ds.X, Options{K: 3, Lambda: 1, Mu: 1, Protected: ds.ProtectedCols, Seed: 1, MaxIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := model.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeModel(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := TransformRow(model, ds.X.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TransformRow(loaded, ds.X.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded model transforms differently")
		}
	}
}

// TestFacadeKDTreeMatchesIndex: the facade's tree returns the lists an
// exhaustive index scan ordered by (squared distance, row index) returns.
func TestFacadeKDTreeMatchesIndex(t *testing.T) {
	ds := Credit(ClassificationConfig{Records: 80, Seed: 5})
	tree := NewKDTree(ds.X)
	m := ds.X.Rows()
	for i := 0; i < 10; i++ {
		want := make([]int, 0, m-1)
		for j := 0; j < m; j++ {
			if j != i {
				want = append(want, j)
			}
		}
		dist := func(j int) (d float64) {
			for c, v := range ds.X.Row(i) {
				e := v - ds.X.At(j, c)
				d += e * e
			}
			return d
		}
		sort.SliceStable(want, func(a, b int) bool { return dist(want[a]) < dist(want[b]) })
		got := tree.Neighbors(i, 5)
		if len(got) != 5 {
			t.Fatalf("row %d: %d neighbours, want 5", i, len(got))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("row %d: KD-tree neighbours %v differ from brute force %v", i, got, want[:5])
			}
		}
	}
}

func TestFacadeLipschitzAudit(t *testing.T) {
	ds := Credit(ClassificationConfig{Records: 60, Seed: 6})
	res := LipschitzAudit(ds.X, ds.X, nil)
	if res.MaxViolation != 0 {
		t.Fatalf("identity audit epsilon = %v, want 0", res.MaxViolation)
	}
}

func TestFacadeKernelConstants(t *testing.T) {
	ds := Credit(ClassificationConfig{Records: 80, Seed: 7})
	model, err := Fit(ds.X, Options{K: 3, Lambda: 1, Mu: 1, Kernel: InverseKernel, Seed: 1, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if model.Kernel != InverseKernel {
		t.Fatal("kernel option not honoured")
	}
	if ExpKernel == InverseKernel {
		t.Fatal("kernel constants must differ")
	}
}

func TestFacadeSyntheticAndStudyTypes(t *testing.T) {
	ds := SyntheticMixture(VariantCorrelatedX2, 60, 3)
	if ds.Rows() != 60 {
		t.Fatal("synthetic size wrong")
	}
	cfg := PaperStudyConfig(1)
	if len(cfg.Mixture) != 6 || len(cfg.K) != 3 || cfg.Restarts != 3 {
		t.Fatalf("PaperStudyConfig = %+v does not match Sec. V-B", cfg)
	}
}
