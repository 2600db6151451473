package pipeline

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/optimize"
)

func TestTradeoffStudyContextCancelled(t *testing.T) {
	ds := dataset.Compas(dataset.ClassificationConfig{Records: 120, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TradeoffStudyContext(ctx, ds, quickCfg()); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential: err = %v, want context.Canceled", err)
	}
	cfg := quickCfg()
	cfg.Parallel = 4
	if _, err := TradeoffStudyContext(ctx, ds, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel: err = %v, want context.Canceled", err)
	}
}

func TestEvalClassificationContextCancelled(t *testing.T) {
	ds := dataset.Compas(dataset.ClassificationConfig{Records: 120, Seed: 1})
	split, err := dataset.ThreeWaySplit(ds.Rows(), 1.0/3, 1.0/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := ifairBRep(quickCfg())
	if _, err := EvalClassificationContext(ctx, ds, split, rep, 0.01); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFig2StudyContextCancelled: Fig. 2 and Table V skip a
// configuration whose fit fails, yet a cancellation must end the study
// with ctx.Err(), whether it comes before the study starts or while its
// fits run.
func TestFig2StudyContextCancelled(t *testing.T) {
	testCancelledMidStudy(t, func(ctx context.Context, cfg StudyConfig) error {
		_, err := Fig2StudyContext(ctx, cfg)
		return err
	})
}

func TestTable5ContextCancelled(t *testing.T) {
	testCancelledMidStudy(t, func(ctx context.Context, cfg StudyConfig) error {
		_, err := Table5Context(ctx, smallXing(), cfg, []float64{0.5})
		return err
	})
}

func testCancelledMidStudy(t *testing.T, study func(context.Context, StudyConfig) error) {
	t.Helper()
	for _, parallel := range []int{1, 4} {
		cfg := quickCfg()
		cfg.Parallel = parallel
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := study(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel %d, cancelled before the start: err = %v, want context.Canceled", parallel, err)
		}
		ctx, cancel = context.WithCancel(context.Background())
		cfg.Trace = cancelOnIteration{cancel}
		if err := study(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel %d, cancelled during a fit: err = %v, want context.Canceled", parallel, err)
		}
		cancel()
	}
}

// cancelOnIteration cancels the study at the first optimiser iteration
// of any fit, so the cancellation lands with fits in flight.
type cancelOnIteration struct{ cancel context.CancelFunc }

func (c cancelOnIteration) RestartStart(int) {}

func (c cancelOnIteration) Iteration(int, optimize.Iteration) { c.cancel() }

func (c cancelOnIteration) RestartEnd(int, optimize.Result, error) {}

func TestStudyTraceObservesTraining(t *testing.T) {
	ds := dataset.Compas(dataset.ClassificationConfig{Records: 120, Seed: 1})
	split, err := dataset.ThreeWaySplit(ds.Rows(), 1.0/3, 1.0/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTrace{}
	cfg := quickCfg()
	cfg.Trace = tr
	rep := ifairBRep(cfg)
	if _, err := EvalClassificationContext(context.Background(), ds, split, rep, 0.01); err != nil {
		t.Fatal(err)
	}
	if tr.starts == 0 || tr.iters == 0 || tr.ends == 0 {
		t.Fatalf("trace saw starts=%d iters=%d ends=%d; expected all non-zero", tr.starts, tr.iters, tr.ends)
	}
}

type countingTrace struct{ starts, iters, ends int }

func (c *countingTrace) RestartStart(int) { c.starts++ }

func (c *countingTrace) Iteration(int, optimize.Iteration) { c.iters++ }

func (c *countingTrace) RestartEnd(int, optimize.Result, error) { c.ends++ }
