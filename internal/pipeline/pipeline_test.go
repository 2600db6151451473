package pipeline

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ifair"
	"repro/internal/lfr"
	"repro/internal/mat"
)

// quickCfg keeps study runtimes small for unit tests.
func quickCfg() StudyConfig {
	return StudyConfig{
		Seed:          1,
		Mixture:       []float64{1},
		K:             []int{4},
		Restarts:      1,
		MaxIterations: 20,
		L2:            0.01,
		TrainFrac:     0.4,
		ValFrac:       0.3,
	}
}

func smallCompas() *dataset.Dataset {
	return dataset.Compas(dataset.ClassificationConfig{Records: 240, Seed: 3})
}

// smallXing keeps the first six queries (240 candidates) of a simulated
// Xing dataset.
func smallXing() *dataset.Dataset {
	ds := dataset.Xing(dataset.UniformXingWeights, dataset.RankingConfig{Seed: 3})
	var rows []int
	for _, q := range ds.Queries[:6] {
		rows = append(rows, q.Rows...)
	}
	return ds.Subset(rows)
}

func TestRepresentationNames(t *testing.T) {
	cases := map[string]Representation{
		"Full Data":   FullData{},
		"Masked Data": &MaskedData{},
		"SVD":         &SVDRep{K: 2},
		"SVD-masked":  &SVDRep{K: 2, Masked: true},
		"LFR":         &LFRRep{},
		"iFair-a":     &IFairRep{Opts: ifair.Options{Init: ifair.InitRandom}},
		"iFair-b":     &IFairRep{Opts: ifair.Options{Init: ifair.InitMaskedProtected}},
	}
	for want, rep := range cases {
		if got := rep.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestFullDataTransformIsIdentityCopy(t *testing.T) {
	ds := smallCompas()
	var rep FullData
	if err := rep.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	out := rep.Transform(ds.X)
	if !mat.Equalish(out, ds.X, 0) {
		t.Fatal("FullData must return the data unchanged")
	}
	out.Set(0, 0, 999)
	if ds.X.At(0, 0) == 999 {
		t.Fatal("FullData must copy, not alias")
	}
}

func TestMaskedDataZeroesProtected(t *testing.T) {
	ds := smallCompas()
	rep := &MaskedData{}
	if err := rep.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	out := rep.Transform(ds.X)
	for i := 0; i < out.Rows(); i++ {
		for _, c := range ds.ProtectedCols {
			if out.At(i, c) != 0 {
				t.Fatal("protected column not zeroed")
			}
		}
	}
}

func TestSVDRepValidation(t *testing.T) {
	ds := smallCompas()
	if err := (&SVDRep{K: 0}).Fit(context.Background(), ds); err == nil {
		t.Fatal("expected error for K=0")
	}
}

func TestSVDRepTransformShape(t *testing.T) {
	ds := smallCompas()
	rep := &SVDRep{K: 3, Masked: true}
	if err := rep.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	out := rep.Transform(ds.X)
	if r, c := out.Dims(); r != ds.Rows() || c != ds.Cols() {
		t.Fatalf("transform dims %d×%d", r, c)
	}
}

func TestLFRRepRequiresLabels(t *testing.T) {
	ds := smallXing()
	rep := &LFRRep{Opts: lfr.Options{K: 2, Ax: 1, Ay: 1, Az: 1}}
	if err := rep.Fit(context.Background(), ds); err == nil {
		t.Fatal("LFR on a ranking dataset must fail")
	}
}

func TestEvalClassificationAllMethods(t *testing.T) {
	ds := smallCompas()
	split, err := dataset.ThreeWaySplit(ds.Rows(), 0.4, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	reps := []Representation{
		FullData{},
		&MaskedData{},
		&SVDRep{K: 4},
		&SVDRep{K: 4, Masked: true},
		&LFRRep{Opts: lfr.Options{K: 4, Az: 1, Ax: 1, Ay: 1, MaxIterations: 20, Seed: 1}},
		&IFairRep{Opts: ifair.Options{K: 4, Lambda: 1, Mu: 1, Init: ifair.InitMaskedProtected, Fairness: ifair.SampledFairness, MaxIterations: 20, Seed: 1}},
	}
	for _, rep := range reps {
		res, err := EvalClassificationContext(context.Background(), ds, split, rep, 0.01)
		if err != nil {
			t.Fatalf("%s: %v", rep.Name(), err)
		}
		for name, v := range map[string]float64{
			"Acc": res.Acc, "AUC": res.AUC, "yNN": res.YNN,
			"Parity": res.Parity, "EqOpp": res.EqOpp,
		} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s: %s = %v out of [0,1]", rep.Name(), name, v)
			}
		}
	}
}

func TestTradeoffStudyProducesResults(t *testing.T) {
	results, err := TradeoffStudy(smallCompas(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string]bool{}
	for _, r := range results {
		if r.FitError != "" {
			t.Fatalf("%s (%s): fit error %s", r.Method, r.Params, r.FitError)
		}
		methods[r.Method] = true
	}
	for _, want := range []string{"Full Data", "Masked Data", "SVD", "SVD-masked", "LFR", "iFair-a", "iFair-b"} {
		if !methods[want] {
			t.Fatalf("method %s missing from study results", want)
		}
	}
}

// TestStudiesParallelMatchSequential runs every study through the job
// pool one fit at a time and four at a time: the results must be equal
// field for field, in the same order.
func TestStudiesParallelMatchSequential(t *testing.T) {
	ctx := context.Background()
	credit := func(seed int64) *dataset.Dataset {
		return dataset.Credit(dataset.ClassificationConfig{Records: 120, Seed: seed})
	}
	studies := []struct {
		name string
		run  func(cfg StudyConfig) ([]any, error)
	}{
		{"tradeoff", func(cfg StudyConfig) ([]any, error) {
			return anys(TradeoffStudyContext(ctx, smallCompas(), cfg))
		}},
		{"fig2", func(cfg StudyConfig) ([]any, error) {
			cfg.MaxIterations = 10
			return anys(Fig2StudyContext(ctx, cfg))
		}},
		{"adversarial", func(cfg StudyConfig) ([]any, error) {
			return anys(AdversarialStudyContext(ctx, smallCompas(), cfg))
		}},
		{"table4", func(cfg StudyConfig) ([]any, error) {
			return anys(Table4Context(ctx, cfg, []dataset.XingWeights{
				{Work: 0, Education: 0.5, Views: 1}, {Work: 1, Education: 1, Views: 1}, dataset.UniformXingWeights,
			}))
		}},
		{"table5", func(cfg StudyConfig) ([]any, error) {
			cfg.Mixture = []float64{0, 1}
			cfg.K = []int{2, 4}
			return anys(Table5Context(ctx, smallXing(), cfg, []float64{0.5, 0.9}))
		}},
		{"audit", func(cfg StudyConfig) ([]any, error) {
			return anys(AuditStudyContext(ctx, smallCompas(), cfg))
		}},
		{"agnostic-classification", func(cfg StudyConfig) ([]any, error) {
			return anys(AgnosticStudyContext(ctx, smallCompas(), cfg))
		}},
		{"agnostic-ranking", func(cfg StudyConfig) ([]any, error) {
			return anys(AgnosticStudyContext(ctx, smallXing(), cfg))
		}},
		{"repeat", func(cfg StudyConfig) ([]any, error) {
			return anys(RepeatStudyContext(ctx, credit, cfg, []int64{1, 2, 3}))
		}},
	}
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			cfg := quickCfg()
			seq, err := st.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Parallel = 4
			par, err := st.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq) == 0 || len(seq) != len(par) {
				t.Fatalf("result counts: %d sequential, %d parallel", len(seq), len(par))
			}
			for i := range seq {
				if seq[i] != par[i] {
					t.Fatalf("result %d differs:\nseq %+v\npar %+v", i, seq[i], par[i])
				}
			}
		})
	}
}

// anys boxes a study's results so one table can hold every study; the
// boxed values compare with == as the structs themselves do.
func anys[T any](rows []T, err error) ([]any, error) {
	out := make([]any, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out, err
}

func TestParetoByMethod(t *testing.T) {
	results := []ClassificationResult{
		{Method: "A", AUC: 0.9, YNN: 0.5},
		{Method: "A", AUC: 0.5, YNN: 0.9},
		{Method: "A", AUC: 0.4, YNN: 0.4}, // dominated
		{Method: "B", AUC: 0.7, YNN: 0.7},
		{Method: "C", AUC: 0.6, YNN: 0.6, FitError: "boom"}, // excluded
	}
	fronts := ParetoByMethod(results)
	if len(fronts["A"]) != 2 {
		t.Fatalf("front A = %v, want 2 points", fronts["A"])
	}
	if len(fronts["B"]) != 1 {
		t.Fatalf("front B = %v, want 1 point", fronts["B"])
	}
	if len(fronts["C"]) != 0 {
		t.Fatal("errored results must not enter the front")
	}
}

func TestTable3Structure(t *testing.T) {
	rows, err := Table3(smallCompas(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// 1 baseline + 3 criteria × 3 methods.
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	if rows[0].Result.Method != "Full Data" {
		t.Fatalf("first row method = %s, want Full Data", rows[0].Result.Method)
	}
	seen := map[string]bool{}
	for _, row := range rows[1:] {
		seen[row.Criterion.String()+"/"+row.Result.Method] = true
	}
	for _, crit := range []string{"Max Utility", "Max Fairness", "Optimal"} {
		for _, m := range []string{"LFR", "iFair-a", "iFair-b"} {
			if !seen[crit+"/"+m] {
				t.Fatalf("missing cell %s/%s", crit, m)
			}
		}
	}
}

func TestTable3FairnessCriterionImprovesYNN(t *testing.T) {
	cfg := quickCfg()
	cfg.Mixture = []float64{0.1, 10}
	rows, err := Table3(smallCompas(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var utilYNN, fairYNN float64
	for _, row := range rows {
		if row.Result.Method == "iFair-b" {
			switch row.Criterion {
			case MaxUtility:
				utilYNN = row.Result.ValidYNN
			case MaxFairness:
				fairYNN = row.Result.ValidYNN
			}
		}
	}
	if fairYNN < utilYNN-1e-9 {
		t.Fatalf("MaxFairness tuning yNN %v below MaxUtility tuning %v", fairYNN, utilYNN)
	}
}

func TestEvalRankingAllMethods(t *testing.T) {
	ds := smallXing()
	qsplit, err := dataset.SplitQueries(len(ds.Queries), 0.4, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	reps := []Representation{
		FullData{},
		&MaskedData{},
		&SVDRep{K: 3},
		&IFairRep{Opts: ifair.Options{K: 4, Lambda: 1, Mu: 1, Init: ifair.InitMaskedProtected, Fairness: ifair.SampledFairness, MaxIterations: 20, Seed: 1}},
	}
	for _, rep := range reps {
		res, err := EvalRankingContext(context.Background(), ds, qsplit, rep, 0.01)
		if err != nil {
			t.Fatalf("%s: %v", rep.Name(), err)
		}
		if res.MAP < 0 || res.MAP > 1 || math.IsNaN(res.MAP) {
			t.Fatalf("%s: MAP = %v", rep.Name(), res.MAP)
		}
		if res.KT < -1 || res.KT > 1 {
			t.Fatalf("%s: KT = %v", rep.Name(), res.KT)
		}
		if res.YNN < 0 || res.YNN > 1 {
			t.Fatalf("%s: yNN = %v", rep.Name(), res.YNN)
		}
		if res.PctProtected < 0 || res.PctProtected > 100 {
			t.Fatalf("%s: pct = %v", rep.Name(), res.PctProtected)
		}
	}
}

func TestEvalRankingRejectsClassificationDataset(t *testing.T) {
	ds := smallCompas()
	if _, err := EvalRankingContext(context.Background(), ds, dataset.Split{Train: []int{0}, Test: []int{1}}, FullData{}, 0.01); err == nil {
		t.Fatal("expected error on classification dataset")
	}
}

func TestFullDataRankingIsNearPerfect(t *testing.T) {
	// The ground-truth score is a linear function of the raw features, so
	// a linear regressor on full data should essentially recover it —
	// mirroring Table V where Full Data attains MAP = 1.0 on Xing.
	ds := smallXing()
	qsplit, err := dataset.SplitQueries(len(ds.Queries), 0.4, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvalRankingContext(context.Background(), ds, qsplit, FullData{}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAP < 0.9 || res.KT < 0.9 {
		t.Fatalf("full data MAP = %v, KT = %v, want ≈1", res.MAP, res.KT)
	}
}

func TestEvalFAIRIncreasesProtectedShare(t *testing.T) {
	ds := smallXing()
	qsplit, err := dataset.SplitQueries(len(ds.Queries), 0.4, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EvalRankingContext(context.Background(), ds, qsplit, &MaskedData{}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	fair, err := EvalFAIR(ds, qsplit, 0.9, 0.1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if fair.PctProtected < base.PctProtected {
		t.Fatalf("FA*IR(0.9) protected share %v below masked baseline %v", fair.PctProtected, base.PctProtected)
	}
}

func TestTable5Structure(t *testing.T) {
	results, err := Table5(smallXing(), quickCfg(), []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range results {
		if r.FitError != "" {
			t.Fatalf("%s: %s", r.Method, r.FitError)
		}
		names = append(names, r.Method)
	}
	joined := strings.Join(names, "|")
	for _, want := range []string{"Full Data", "Masked Data", "SVD", "SVD-masked", "FA*IR (p=0.5)", "FA*IR (p=0.9)", "iFair-b"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("method %q missing from Table 5 results: %v", want, names)
		}
	}
}

func TestFig2StudyStructure(t *testing.T) {
	cfg := quickCfg()
	cfg.MaxIterations = 15
	cells, err := Fig2Study(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("cells = %d, want 9 (3 variants × 3 methods)", len(cells))
	}
	for _, c := range cells {
		if c.Acc < 0 || c.Acc > 1 || c.YNN < 0 || c.YNN > 1 {
			t.Fatalf("cell %+v has out-of-range metrics", c)
		}
	}
}

func TestAdversarialStudyClassification(t *testing.T) {
	cells, err := AdversarialStudy(smallCompas(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4 (masked, LFR, iFair-b, censored)", len(cells))
	}
	for _, c := range cells {
		if c.Accuracy < 0 || c.Accuracy > 1 {
			t.Fatalf("accuracy %v out of range", c.Accuracy)
		}
	}
}

func TestAdversarialStudyRankingSkipsLFR(t *testing.T) {
	cells, err := AdversarialStudy(smallXing(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("cells = %d, want 3 (LFR not applicable)", len(cells))
	}
}

func TestPostProcessStudyMonotoneProtectedShare(t *testing.T) {
	ds := smallXing()
	points, err := PostProcessStudy(ds, quickCfg(), []float64{0.2, 0.5, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// The protected share should not decrease as p grows (Fig. 5's core
	// message: the combined model achieves whatever share is required).
	if points[2].PctInTop < points[0].PctInTop-1e-9 {
		t.Fatalf("protected share fell from %v to %v as p grew", points[0].PctInTop, points[2].PctInTop)
	}
}

// TestFAIRCountsInfeasibleQueries: a test query left with no protected
// candidate cannot meet a positive FA*IR target, and both re-ranking loops
// (EvalFAIR for Table V, PostProcessStudy for Fig. 5) count it. At p = 0.1
// every untouched query of the fixture is feasible.
func TestFAIRCountsInfeasibleQueries(t *testing.T) {
	ds := smallXing()
	cfg := quickCfg()
	qsplit, err := dataset.SplitQueries(len(ds.Queries), cfg.TrainFrac, cfg.ValFrac, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	count := func(ds *dataset.Dataset) (table5, fig5 int) {
		res, err := EvalFAIR(ds, qsplit, 0.1, 0.1, cfg.L2)
		if err != nil {
			t.Fatal(err)
		}
		points, err := PostProcessStudy(ds, cfg, []float64{0.1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Infeasible, points[0].Infeasible
	}
	if t5, f5 := count(ds); t5 != 0 || f5 != 0 {
		t.Fatalf("untouched fixture: %d and %d infeasible queries, want 0", t5, f5)
	}
	for _, r := range ds.Queries[qsplit.Test[0]].Rows {
		ds.Protected[r] = false
	}
	if t5, f5 := count(ds); t5 != 1 || f5 != 1 {
		t.Fatalf("one test query without protected candidates: EvalFAIR counted %d, PostProcessStudy %d, want 1 each", t5, f5)
	}
}

func TestAuditStudyClassification(t *testing.T) {
	rows, err := AuditStudyContext(context.Background(), smallCompas(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (full, masked, SVD, iFair-b, censored, LFR)", len(rows))
	}
	byMethod := map[string]AuditRow{}
	for _, r := range rows {
		byMethod[r.Method] = r
		if r.Result.MaxViolation < r.Result.P99 {
			t.Fatalf("%s: max %v below p99 %v", r.Method, r.Result.MaxViolation, r.Result.P99)
		}
	}
	// Masked data equals the reference view on every audited column, so
	// its violations must be exactly zero.
	if got := byMethod["Masked Data"].Result.MaxViolation; got != 0 {
		t.Fatalf("masked-data epsilon = %v, want 0", got)
	}
	// Lossy representations must show strictly positive violations.
	if byMethod["SVD"].Result.MeanViolation <= 0 {
		t.Fatal("SVD audit should show violations")
	}
}

func TestAuditStudyRankingSkipsLFR(t *testing.T) {
	rows, err := AuditStudyContext(context.Background(), smallXing(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (LFR not applicable)", len(rows))
	}
}

func TestAgnosticStudyClassification(t *testing.T) {
	rows, err := AgnosticStudyContext(context.Background(), smallCompas(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 reps × 2 downstream models)", len(rows))
	}
	for _, r := range rows {
		if r.Utility < 0 || r.Utility > 1 || r.YNN < 0 || r.YNN > 1 {
			t.Fatalf("row %v has out-of-range metrics", r)
		}
	}
}

func TestAgnosticStudyRanking(t *testing.T) {
	rows, err := AgnosticStudyContext(context.Background(), smallXing(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Representation+"/"+r.Downstream] = true
	}
	for _, want := range []string{"Full Data/pointwise", "Full Data/pairwise", "iFair-b/pointwise", "iFair-b/pairwise"} {
		if !seen[want] {
			t.Fatalf("missing row %s (have %v)", want, seen)
		}
	}
}

func TestAgnosticFairnessTransfersToLogistic(t *testing.T) {
	// iFair's consistency gain must hold for the calibrated probabilistic
	// classifier. (Naive Bayes is included in the study for diversity but
	// its overconfident probabilities on compressed representations are a
	// documented finding, not a guarantee.)
	cfg := quickCfg()
	cfg.MaxIterations = 40
	rows, err := AgnosticStudyContext(context.Background(), smallCompas(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ynn := map[string]float64{}
	for _, r := range rows {
		ynn[r.Representation+"/"+r.Downstream] = r.YNN
	}
	if ynn["iFair-b/logistic"] < ynn["Full Data/logistic"]-0.02 {
		t.Fatalf("logistic: iFair-b yNN %v below Full Data %v", ynn["iFair-b/logistic"], ynn["Full Data/logistic"])
	}
}

func TestRepeatStudyAggregates(t *testing.T) {
	cfg := quickCfg()
	cfg.MaxIterations = 25
	gen := func(seed int64) *dataset.Dataset {
		return dataset.Credit(dataset.ClassificationConfig{Records: 300, Seed: seed})
	}
	rows, err := RepeatStudyContext(context.Background(), gen, cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.MeanAUC <= 0 || r.MeanAUC > 1 || r.MeanYNN <= 0 || r.MeanYNN > 1 {
			t.Fatalf("%s: mean metrics out of range: %+v", r.Method, r)
		}
		if r.StdAUC < 0 || r.StdYNN < 0 {
			t.Fatalf("%s: negative std", r.Method)
		}
	}
	// The headline direction should hold in expectation across seeds.
	if rows[1].MeanYNN < rows[0].MeanYNN-0.02 {
		t.Fatalf("iFair-b mean yNN %v below Full Data %v", rows[1].MeanYNN, rows[0].MeanYNN)
	}
}

// TestRepeatStudyFailsOnFailedSeed: a run that fails ends the study with
// an error naming its seed and method instead of a summary over fewer
// seeds.
func TestRepeatStudyFailsOnFailedSeed(t *testing.T) {
	cfg := quickCfg()
	cfg.MaxIterations = 5
	gen := func(seed int64) *dataset.Dataset {
		ds := dataset.Credit(dataset.ClassificationConfig{Records: 120, Seed: seed})
		if seed == 2 {
			// A non-finite feature poisons every record's logistic loss
			// through the shared weights, so the classifier cannot train.
			for i := 0; i < ds.Rows(); i++ {
				ds.X.Set(i, 0, math.NaN())
			}
		}
		return ds
	}
	for _, parallel := range []int{1, 4} {
		cfg.Parallel = parallel
		_, err := RepeatStudyContext(context.Background(), gen, cfg, []int64{1, 2, 3})
		if err == nil {
			t.Fatalf("parallel %d: study with a failing seed succeeded", parallel)
		}
		if msg := err.Error(); !strings.Contains(msg, "seed 2") || !strings.Contains(msg, "Full Data") {
			t.Fatalf("parallel %d: error %q does not name seed 2 and the Full Data method", parallel, msg)
		}
	}
}

func TestRepeatStudyNeedsSeeds(t *testing.T) {
	if _, err := RepeatStudyContext(context.Background(), func(int64) *dataset.Dataset { return smallCompas() }, quickCfg(), nil); err == nil {
		t.Fatal("expected error without seeds")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || std != 2 {
		t.Fatalf("meanStd = %v, %v, want 5, 2", mean, std)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty meanStd should be zero")
	}
}

func TestTable4DefaultsToSevenRows(t *testing.T) {
	cfg := quickCfg()
	rows, err := Table4(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	for _, r := range rows {
		if r.MAP < 0 || r.MAP > 1 {
			t.Fatalf("row %+v has out-of-range MAP", r)
		}
	}
}
