// Command experiments reproduces every table and figure of the paper's
// evaluation on the simulated datasets. Each experiment prints the same
// rows/series the paper reports.
//
// Usage:
//
//	experiments -run all            # everything
//	experiments -run table3         # one artefact (-help lists them all)
//	experiments -run fig2,table4    # several, in the order given
//	experiments -full               # the paper's full Sec. V-B grid
//	experiments -seed 7 -records 1000
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/dataset"
	"repro/internal/optimize"
	"repro/internal/pipeline"
	"repro/internal/viz"
)

// csvDir, when non-empty, receives one CSV file per experiment so the
// figures can be re-plotted with any charting tool.
var csvDir string

// plotCharts enables ASCII chart rendering for the figure experiments.
var plotCharts bool

// writeSeries writes a CSV artefact if -csv was given.
func writeSeries(name string, headerRow []string, rows [][]string) error {
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(headerRow); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// experiments lists every study in the order -run all runs them; -help
// and the -run check both take their names from it.
var experiments = []struct {
	name string
	run  func(context.Context, pipeline.StudyConfig, int) error
}{
	{"table2", runTable2},
	{"fig2", runFig2},
	{"fig3", runFig3},
	{"table3", runTable3},
	{"table4", runTable4},
	{"table5", runTable5},
	{"fig4", runFig4},
	{"fig5", runFig5},
	{"audit", runAudit},
	{"agnostic", runAgnostic},
	{"variance", runVariance},
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	var (
		run     = flag.String("run", "all", "experiments to run: all, or a comma-separated list of "+strings.Join(names, ", "))
		seed    = flag.Int64("seed", 42, "random seed for data simulation and training")
		full    = flag.Bool("full", false, "use the paper's full hyper-parameter grid (slow)")
		records = flag.Int("records", 0, "override simulated record count for classification datasets")
		csvOut  = flag.String("csv", "", "directory to write per-experiment CSV artefacts into")
		plot    = flag.Bool("plot", false, "render ASCII charts for fig3 and fig4")
		trace   = flag.Bool("trace", false, "print structured TRAIN lines for every optimizer restart to stderr")
		workers = flag.Int("workers", 1, "objective-evaluation goroutines per fit (results are bit-identical for any value)")
		ckptDir = flag.String("checkpoint-dir", "", "directory for crash-safe training snapshots; a killed study rerun with the same flags resumes bit-identically")
	)
	flag.Parse()
	csvDir = *csvOut
	plotCharts = *plot

	cfg := quickConfig(*seed)
	if *full {
		cfg = pipeline.PaperStudyConfig(*seed)
	}
	cfg.Parallel = runtime.NumCPU()
	cfg.Workers = *workers
	cfg.CheckpointDir = *ckptDir
	if *trace {
		cfg.Trace = &trainTrace{w: os.Stderr, workers: max(*workers, 1)}
	}

	// SIGINT/SIGTERM abort the current study; every fit in flight stops
	// within one optimizer iteration.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	targets := experiments
	if *run != "all" {
		targets = nil
		for _, name := range strings.Split(*run, ",") {
			name = strings.TrimSpace(name)
			i := slices.Index(names, name)
			if i < 0 {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (choose from %s)\n", name, strings.Join(names, ", "))
				os.Exit(2)
			}
			targets = append(targets, experiments[i])
		}
	}

	for _, e := range targets {
		if err := e.run(ctx, cfg, *records); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.name, err)
			os.Exit(1)
		}
	}
}

// trainTrace emits one structured line per optimizer event, suitable for
// grep/awk. Restarts train concurrently, so writes are mutex-guarded.
type trainTrace struct {
	mu      sync.Mutex
	w       io.Writer
	workers int // effective per-fit objective worker count
}

func (t *trainTrace) RestartStart(r int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(t.w, "TRAIN event=restart-start restart=%d workers=%d\n", r, t.workers)
}

func (t *trainTrace) Iteration(r int, it optimize.Iteration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(t.w, "TRAIN event=iteration restart=%d iter=%d loss=%.6g gradnorm=%.3g step=%.3g evals=%d\n",
		r, it.Iter, it.F, it.GradNorm, it.Step, it.Evals)
}

func (t *trainTrace) RestartEnd(r int, res optimize.Result, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		fmt.Fprintf(t.w, "TRAIN event=restart-end restart=%d error=%q\n", r, err)
		return
	}
	fmt.Fprintf(t.w, "TRAIN event=restart-end restart=%d status=%q iters=%d loss=%.6g\n",
		r, res.Status, res.Iterations, res.F)
}

// quickConfig trades grid breadth for runtime; EXPERIMENTS.md documents the
// trimmed grid.
func quickConfig(seed int64) pipeline.StudyConfig {
	return pipeline.StudyConfig{
		Seed:          seed,
		Mixture:       []float64{0.1, 1, 10},
		K:             []int{10, 20, 30},
		Restarts:      2,
		MaxIterations: 100,
		L2:            0.01,
		TrainFrac:     1.0 / 3,
		ValFrac:       1.0 / 3,
	}
}

func classificationDatasets(cfg pipeline.StudyConfig, records int) []*dataset.Dataset {
	return []*dataset.Dataset{
		dataset.Compas(dataset.ClassificationConfig{Records: records, Seed: cfg.Seed}),
		dataset.Census(dataset.ClassificationConfig{Records: records, Seed: cfg.Seed}),
		dataset.Credit(dataset.ClassificationConfig{Records: records, Seed: cfg.Seed}),
	}
}

func rankingDatasets(cfg pipeline.StudyConfig) []*dataset.Dataset {
	return []*dataset.Dataset{
		dataset.Xing(dataset.UniformXingWeights, dataset.RankingConfig{Seed: cfg.Seed}),
		dataset.Airbnb(dataset.RankingConfig{Seed: cfg.Seed}),
	}
}

// studies memoises each classification dataset's trade-off study, so
// fig3 and table3 in one invocation fit the grid once. cfg and records
// are fixed for the whole invocation, so the dataset name is the key.
var studies = map[string][]pipeline.ClassificationResult{}

// tradeoffStudy returns ds's TradeoffStudy result, fitting it on first use.
func tradeoffStudy(ctx context.Context, ds *dataset.Dataset, cfg pipeline.StudyConfig) ([]pipeline.ClassificationResult, error) {
	if results, ok := studies[ds.Name]; ok {
		return results, nil
	}
	results, err := pipeline.TradeoffStudyContext(ctx, ds, cfg)
	if err != nil {
		return nil, err
	}
	studies[ds.Name] = results
	return results, nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func runTable2(ctx context.Context, cfg pipeline.StudyConfig, records int) error {
	header("Table II: dataset statistics (simulated equivalents)")
	fmt.Printf("%-10s %9s %6s %10s %12s %9s %8s\n",
		"Dataset", "Records", "Dims", "BaseRate+", "BaseRate-", "%Prot", "Queries")
	all := classificationDatasets(cfg, records)
	all = append(all, rankingDatasets(cfg)...)
	for _, ds := range all {
		s := ds.Summary()
		base := fmt.Sprintf("%10s %12s", "-", "-")
		if ds.Task == dataset.Classification {
			base = fmt.Sprintf("%10.2f %12.2f", s.BaseRateProtected, s.BaseRateUnprotected)
		}
		fmt.Printf("%-10s %9d %6d %s %8.1f%% %8d\n",
			s.Name, s.Records, s.Dims, base, 100*s.ProtectedShare, s.QueryCount)
	}
	return nil
}

func runFig2(ctx context.Context, cfg pipeline.StudyConfig, _ int) error {
	header("Figure 2: properties on synthetic data (Acc / yNN / Parity / EqOpp)")
	cells, err := pipeline.Fig2StudyContext(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-10s %7s %7s %7s %7s\n", "Variant", "Method", "Acc", "yNN", "Parity", "EqOpp")
	var rows [][]string
	for _, c := range cells {
		fmt.Printf("%-10s %-10s %7.3f %7.3f %7.3f %7.3f\n", c.Variant, c.Method, c.Acc, c.YNN, c.Parity, c.EqOpp)
		rows = append(rows, []string{c.Variant, c.Method, f3(c.Acc), f3(c.YNN), f3(c.Parity), f3(c.EqOpp)})
	}
	return writeSeries("fig2", []string{"variant", "method", "acc", "ynn", "parity", "eqopp"}, rows)
}

func runFig3(ctx context.Context, cfg pipeline.StudyConfig, records int) error {
	header("Figure 3: utility (AUC) vs individual fairness (yNN) trade-off")
	var rows [][]string
	for _, ds := range classificationDatasets(cfg, records) {
		results, err := tradeoffStudy(ctx, ds, cfg)
		if err != nil {
			return err
		}
		fronts := pipeline.ParetoByMethod(results)
		onFront := map[int]bool{}
		for _, idx := range fronts {
			for _, i := range idx {
				onFront[i] = true
			}
		}
		fmt.Printf("\n-- %s: Pareto-optimal configurations per method --\n", ds.Name)
		fmt.Printf("%-12s %-24s %7s %7s\n", "Method", "Params", "AUC", "yNN")
		for _, method := range []string{"Full Data", "Masked Data", "SVD", "SVD-masked", "LFR", "iFair-a", "iFair-b"} {
			for _, i := range fronts[method] {
				r := results[i]
				fmt.Printf("%-12s %-24s %7.3f %7.3f\n", r.Method, r.Params, r.AUC, r.YNN)
			}
		}
		// The CSV artefact carries the full point cloud, not only fronts.
		for i, r := range results {
			if r.FitError != "" {
				continue
			}
			rows = append(rows, []string{ds.Name, r.Method, r.Params, f3(r.AUC), f3(r.YNN), strconv.FormatBool(onFront[i])})
		}
		if plotCharts {
			glyphs := map[string]rune{
				"Full Data": 'F', "Masked Data": 'M', "SVD": 's', "SVD-masked": 'v',
				"LFR": 'L', "iFair-a": 'a', "iFair-b": 'b',
			}
			var series []viz.Series
			for _, method := range []string{"Full Data", "Masked Data", "SVD", "SVD-masked", "LFR", "iFair-a", "iFair-b"} {
				s := viz.Series{Name: method, Glyph: glyphs[method]}
				for _, r := range results {
					if r.Method == method && r.FitError == "" {
						s.X = append(s.X, r.YNN)
						s.Y = append(s.Y, r.AUC)
					}
				}
				series = append(series, s)
			}
			fmt.Println(viz.Scatter(fmt.Sprintf("%s: AUC vs yNN", ds.Name), series, 60, 16, "yNN", "AUC"))
		}
	}
	return writeSeries("fig3", []string{"dataset", "method", "params", "auc", "ynn", "pareto"}, rows)
}

func runTable3(ctx context.Context, cfg pipeline.StudyConfig, records int) error {
	header("Table III: classification detail under three tuning criteria")
	var csvRows [][]string
	for _, ds := range classificationDatasets(cfg, records) {
		results, err := tradeoffStudy(ctx, ds, cfg)
		if err != nil {
			return err
		}
		rows := pipeline.Table3Rows(results)
		fmt.Printf("\n-- %s --\n", ds.Name)
		fmt.Printf("%-13s %-10s %6s %6s %7s %7s %6s\n", "Tuning", "Method", "Acc", "AUC", "EqOpp", "Parity", "yNN")
		for i, row := range rows {
			tuning := row.Criterion.String()
			if i == 0 {
				tuning = "Baseline"
			}
			r := row.Result
			fmt.Printf("%-13s %-10s %6.2f %6.2f %7.2f %7.2f %6.2f\n",
				tuning, r.Method, r.Acc, r.AUC, r.EqOpp, r.Parity, r.YNN)
			csvRows = append(csvRows, []string{ds.Name, tuning, r.Method, f3(r.Acc), f3(r.AUC), f3(r.EqOpp), f3(r.Parity), f3(r.YNN)})
		}
	}
	return writeSeries("table3", []string{"dataset", "tuning", "method", "acc", "auc", "eqopp", "parity", "ynn"}, csvRows)
}

func runTable4(ctx context.Context, cfg pipeline.StudyConfig, _ int) error {
	header("Table IV: sensitivity of iFair to ranking-score weights (Xing)")
	rows, err := pipeline.Table4Context(ctx, cfg, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%5s %5s %6s | %9s %6s %6s %6s %10s\n",
		"aWork", "aEdu", "aViews", "BaseRate+", "MAP", "KT", "yNN", "%Protected")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("%5.2f %5.2f %6.2f | %8.2f%% %6.2f %6.2f %6.2f %9.2f%%\n",
			r.Weights.Work, r.Weights.Education, r.Weights.Views,
			r.BaseRateProtected, r.MAP, r.KT, r.YNN, r.PctProtected)
		csvRows = append(csvRows, []string{
			f3(r.Weights.Work), f3(r.Weights.Education), f3(r.Weights.Views),
			f3(r.BaseRateProtected), f3(r.MAP), f3(r.KT), f3(r.YNN), f3(r.PctProtected),
		})
	}
	return writeSeries("table4", []string{"w_work", "w_edu", "w_views", "baserate_prot", "map", "kt", "ynn", "pct_protected"}, csvRows)
}

func runTable5(ctx context.Context, cfg pipeline.StudyConfig, _ int) error {
	header("Table V: ranking task (criterion Optimal)")
	fairPs := map[string][]float64{"xing": {0.5, 0.9}, "airbnb": {0.5, 0.6}}
	var csvRows [][]string
	for _, ds := range rankingDatasets(cfg) {
		results, err := pipeline.Table5Context(ctx, ds, cfg, fairPs[ds.Name])
		if err != nil {
			return err
		}
		fmt.Printf("\n-- %s (%d queries) --\n", ds.Name, len(ds.Queries))
		fmt.Printf("%-14s %6s %6s %6s %12s\n", "Method", "MAP", "KT", "yNN", "%Prot top10")
		for _, r := range results {
			if r.FitError != "" {
				fmt.Printf("%-14s fit error: %s\n", r.Method, r.FitError)
				continue
			}
			if r.Infeasible > 0 {
				fmt.Fprintf(os.Stderr, "table5 %s: %s infeasible on %d test quer(ies)\n", ds.Name, r.Method, r.Infeasible)
			}
			fmt.Printf("%-14s %6.2f %6.2f %6.2f %11.2f%%\n", r.Method, r.MAP, r.KT, r.YNN, r.PctProtected)
			csvRows = append(csvRows, []string{ds.Name, r.Method, f3(r.MAP), f3(r.KT), f3(r.YNN), f3(r.PctProtected)})
		}
	}
	return writeSeries("table5", []string{"dataset", "method", "map", "kt", "ynn", "pct_protected"}, csvRows)
}

func runFig4(ctx context.Context, cfg pipeline.StudyConfig, records int) error {
	header("Figure 4: adversarial accuracy of predicting protected membership (lower is better)")
	fmt.Printf("%-10s %-12s %9s\n", "Dataset", "Method", "Adv. Acc")
	all := classificationDatasets(cfg, records)
	all = append(all, rankingDatasets(cfg)...)
	var csvRows [][]string
	var barLabels []string
	var barValues []float64
	for _, ds := range all {
		cells, err := pipeline.AdversarialStudyContext(ctx, ds, cfg)
		if err != nil {
			return err
		}
		for _, c := range cells {
			fmt.Printf("%-10s %-12s %9.3f\n", c.Dataset, c.Method, c.Accuracy)
			csvRows = append(csvRows, []string{c.Dataset, c.Method, f3(c.Accuracy)})
			barLabels = append(barLabels, c.Dataset+"/"+c.Method)
			barValues = append(barValues, c.Accuracy)
		}
	}
	if plotCharts {
		fmt.Println()
		fmt.Println(viz.Bars("adversarial accuracy (lower = better obfuscation)", barLabels, barValues, 40))
	}
	return writeSeries("fig4", []string{"dataset", "method", "adversarial_accuracy"}, csvRows)
}

func runAudit(ctx context.Context, cfg pipeline.StudyConfig, records int) error {
	header("Definition-1 audit (extension): distance-preservation violations, held-out pairs")
	fmt.Printf("%-10s %-12s %9s %9s %9s %9s %9s\n",
		"Dataset", "Method", "mean", "p50", "p90", "p99", "eps(max)")
	all := classificationDatasets(cfg, records)
	all = append(all, rankingDatasets(cfg)...)
	var csvRows [][]string
	for _, ds := range all {
		rows, err := pipeline.AuditStudyContext(ctx, ds, cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%-10s %-12s %9.3f %9.3f %9.3f %9.3f %9.3f\n",
				r.Dataset, r.Method, r.Result.MeanViolation, r.Result.P50, r.Result.P90, r.Result.P99, r.Result.MaxViolation)
			csvRows = append(csvRows, []string{r.Dataset, r.Method,
				f3(r.Result.MeanViolation), f3(r.Result.P50), f3(r.Result.P90), f3(r.Result.P99), f3(r.Result.MaxViolation)})
		}
	}
	return writeSeries("audit", []string{"dataset", "method", "mean", "p50", "p90", "p99", "epsilon"}, csvRows)
}

func runAgnostic(ctx context.Context, cfg pipeline.StudyConfig, records int) error {
	header("Application-agnosticism (extension): same representation, different downstream models")
	fmt.Printf("%-10s %-12s %-12s %9s %7s\n", "Dataset", "Repr", "Downstream", "Utility", "yNN")
	all := classificationDatasets(cfg, records)
	all = append(all, rankingDatasets(cfg)...)
	var csvRows [][]string
	for _, ds := range all {
		rows, err := pipeline.AgnosticStudyContext(ctx, ds, cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%-10s %-12s %-12s %9.3f %7.3f\n", r.Dataset, r.Representation, r.Downstream, r.Utility, r.YNN)
			csvRows = append(csvRows, []string{r.Dataset, r.Representation, r.Downstream, f3(r.Utility), f3(r.YNN)})
		}
	}
	return writeSeries("agnostic", []string{"dataset", "representation", "downstream", "utility", "ynn"}, csvRows)
}

func runVariance(ctx context.Context, cfg pipeline.StudyConfig, records int) error {
	header("Run-to-run variance (extension): mean ± std across 5 seeds")
	fmt.Printf("%-10s %-12s %14s %14s %8s %8s\n", "Dataset", "Method", "AUC", "yNN", "Parity", "EqOpp")
	seeds := []int64{cfg.Seed, cfg.Seed + 1, cfg.Seed + 2, cfg.Seed + 3, cfg.Seed + 4}
	gens := map[string]func(seed int64) *dataset.Dataset{
		"compas": func(seed int64) *dataset.Dataset {
			return dataset.Compas(dataset.ClassificationConfig{Records: records, Seed: seed})
		},
		"census": func(seed int64) *dataset.Dataset {
			return dataset.Census(dataset.ClassificationConfig{Records: records, Seed: seed})
		},
		"credit": func(seed int64) *dataset.Dataset {
			return dataset.Credit(dataset.ClassificationConfig{Records: records, Seed: seed})
		},
	}
	var csvRows [][]string
	for _, name := range []string{"compas", "census", "credit"} {
		rows, err := pipeline.RepeatStudyContext(ctx, gens[name], cfg, seeds)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%-10s %-12s %6.3f ± %.3f %6.3f ± %.3f %8.3f %8.3f\n",
				name, r.Method, r.MeanAUC, r.StdAUC, r.MeanYNN, r.StdYNN, r.MeanParity, r.MeanEqOpp)
			csvRows = append(csvRows, []string{name, r.Method,
				f3(r.MeanAUC), f3(r.StdAUC), f3(r.MeanYNN), f3(r.StdYNN), f3(r.MeanParity), f3(r.MeanEqOpp)})
		}
	}
	return writeSeries("variance", []string{"dataset", "method", "mean_auc", "std_auc", "mean_ynn", "std_ynn", "mean_parity", "mean_eqopp"}, csvRows)
}

func runFig5(ctx context.Context, cfg pipeline.StudyConfig, _ int) error {
	header("Figure 5: FA*IR applied to iFair representations")
	ps := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	var csvRows [][]string
	for _, ds := range rankingDatasets(cfg) {
		points, err := pipeline.PostProcessStudyContext(ctx, ds, cfg, ps)
		if err != nil {
			return err
		}
		fmt.Printf("\n-- %s --\n", ds.Name)
		fmt.Printf("%5s %7s %7s %12s\n", "p", "MAP", "yNN", "%Prot top10")
		for _, pt := range points {
			if pt.Infeasible > 0 {
				fmt.Fprintf(os.Stderr, "fig5 %s: FA*IR (p=%g) infeasible on %d test quer(ies)\n", ds.Name, pt.P, pt.Infeasible)
			}
			fmt.Printf("%5.1f %7.3f %7.3f %11.2f%%\n", pt.P, pt.MAP, pt.YNN, pt.PctInTop)
			csvRows = append(csvRows, []string{ds.Name, f3(pt.P), f3(pt.MAP), f3(pt.YNN), f3(pt.PctInTop)})
		}
	}
	return writeSeries("fig5", []string{"dataset", "p", "map", "ynn", "pct_protected_top10"}, csvRows)
}
